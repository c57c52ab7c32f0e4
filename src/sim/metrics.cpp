#include "sim/metrics.h"

#include "recovery/retransmit.h"
#include "sim/message.h"

namespace discsp::sim {

void set_channel_counters(const FaultPlan* plan,
                          const recovery::RetransmitBuffer* retransmit,
                          const ChannelGuard* guard, RunMetrics& m) {
  if (plan != nullptr) m.faults = plan->summary();
  if (retransmit != nullptr) {
    m.retransmissions = retransmit->retransmissions();
    m.detector_false_positives = retransmit->false_positives();
  }
  if (guard != nullptr) {
    m.malformed_frames = guard->malformed_frames();
    m.quarantines = guard->quarantines();
    m.quarantine_drops = guard->quarantine_drops();
    m.quarantine_readmissions = guard->readmissions();
  }
}

}  // namespace discsp::sim

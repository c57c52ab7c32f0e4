#include "abt/abt_agent.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "learning/resolvent.h"

namespace discsp::abt {

AbtAgent::AbtAgent(AgentId id, VarId var, int domain_size, Value initial_value,
                   std::vector<AgentId> lower_neighbors,
                   const std::vector<Nogood>& evaluated_nogoods,
                   std::shared_ptr<const std::vector<AgentId>> owner_of_var, Rng rng,
                   AbtAgentConfig config)
    : id_(id), var_(var), domain_size_(domain_size), value_(initial_value),
      store_(var, domain_size), outgoing_(std::move(lower_neighbors)),
      owner_of_var_(std::move(owner_of_var)), rng_(rng), config_(config) {
  if (initial_value < 0 || initial_value >= domain_size) {
    throw std::invalid_argument("initial value outside domain");
  }
  outgoing_set_.insert(outgoing_.begin(), outgoing_.end());
  for (const Nogood& ng : evaluated_nogoods) {
    if (ng.empty()) {
      insoluble_ = true;
      continue;
    }
    // This agent evaluates only the constraints where it is the lowest
    // priority member; the solver hands us exactly those.
    assert(!ng.empty() && ng.items().back().var == var_ &&
           "ABT stores constraints at their lowest-priority member");
    store_.add(ng);
  }
  store_.mark_initial();
  store_.set_own_value(value_);
}

bool AbtAgent::violated_with_own(const Nogood& ng, Value d) {
  ++checks_;
  store_.add_scan_work(1);  // the bucket-scan path's unit of real work
  return ng.violated_by([&](VarId v) { return v == var_ ? d : view_value(v); });
}

void AbtAgent::start(sim::MessageSink& out) {
  broadcast_ok(out);
  dirty_ = true;
}

void AbtAgent::receive(const sim::MessagePayload& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, sim::OkMessage>) {
          if (m.var != var_ && store_.view_value(m.var) != m.value) {
            store_.set_view(m.var, m.value);
            dirty_ = true;
          }
        } else if constexpr (std::is_same_v<T, sim::NogoodMessage>) {
          if (m.nogood.empty()) {
            insoluble_ = true;
            return;
          }
          if (!m.nogood.contains(var_)) return;  // defensive
          if (store_.add(m.nogood)) {
            dirty_ = true;
            for (const Assignment& a : m.nogood) {
              if (a.var != var_ && !view_known(a.var)) {
                pending_value_requests_.push_back(a.var);
              }
            }
          }
          pending_nogood_acks_.push_back(m.sender);
        } else if constexpr (std::is_same_v<T, sim::AddLinkMessage>) {
          if (outgoing_set_.insert(m.sender).second) {
            outgoing_.push_back(m.sender);
          }
          pending_link_replies_.push_back(m.sender);
        } else {
          throw std::logic_error("ABT agent received an unsupported message type");
        }
      },
      msg);
}

void AbtAgent::compute(sim::MessageSink& out) {
  for (VarId v : pending_value_requests_) {
    if (view_known(v)) continue;
    out.send((*owner_of_var_)[static_cast<std::size_t>(v)],
             sim::AddLinkMessage{.sender = id_, .var = v});
  }
  pending_value_requests_.clear();

  for (AgentId requester : pending_link_replies_) {
    out.send(requester,
             sim::OkMessage{.sender = id_, .var = var_, .value = value_, .priority = 0});
  }
  pending_link_replies_.clear();

  if (insoluble_) {
    pending_nogood_acks_.clear();
    return;
  }

  const Value old_value = value_;
  if (dirty_) {
    dirty_ = false;
    check_agent_view(out);
  }
  // A nogood whose target kept its value must re-assert it toward the sender
  // (the sender optimistically dropped it from its view).
  if (value_ == old_value) {
    for (AgentId sender : pending_nogood_acks_) {
      out.send(sender,
               sim::OkMessage{.sender = id_, .var = var_, .value = value_, .priority = 0});
    }
  }
  pending_nogood_acks_.clear();
}

bool AbtAgent::consistent_current() {
  // The scan walks bucket(value_) in insertion order and stops at the first
  // violated nogood. ABT never removes from its store, so bucket order ==
  // ascending index order, and the first hit is the smallest index in the
  // counter engine's violated list.
  const auto& bucket = store_.bucket(value_);
  scratch_violated_.clear();
  store_.violated_with_own(value_, scratch_violated_);
  if (scratch_violated_.empty()) {
    checks_ += bucket.size();  // the scan evaluates the whole bucket
    return true;
  }
  const auto hit = std::lower_bound(bucket.begin(), bucket.end(), scratch_violated_.front());
  assert(hit != bucket.end() && *hit == scratch_violated_.front());
  checks_ += static_cast<std::uint64_t>(hit - bucket.begin()) + 1;  // early break
  return false;
}

void AbtAgent::check_agent_view(sim::MessageSink& out) {
  for (;;) {
    // Current value consistent?
    bool consistent = true;
    if (config_.incremental) {
      consistent = consistent_current();
    } else {
      for (std::uint32_t idx : store_.bucket(value_)) {
        if (violated_with_own(store_.at(idx), value_)) {
          consistent = false;
          break;
        }
      }
    }
    if (consistent) return;

    // Any consistent value? Collect the violation evidence as we go: the
    // resolvent variant consumes it at a deadend.
    std::vector<std::vector<const Nogood*>> violated(static_cast<std::size_t>(domain_size_));
    std::vector<Value> candidates;
    for (Value d = 0; d < domain_size_; ++d) {
      auto& list = violated[static_cast<std::size_t>(d)];
      if (config_.incremental) {
        // The scan evaluates every nogood in bucket(d); the violated subset
        // comes straight from the counters, in the same (index) order.
        checks_ += store_.bucket(d).size();
        scratch_violated_.clear();
        store_.violated_with_own(d, scratch_violated_);
        for (std::uint32_t idx : scratch_violated_) list.push_back(&store_.at(idx));
      } else {
        for (std::uint32_t idx : store_.bucket(d)) {
          const Nogood& ng = store_.at(idx);
          if (violated_with_own(ng, d)) list.push_back(&ng);
        }
      }
      if (list.empty()) candidates.push_back(d);
    }

    if (!candidates.empty()) {
      value_ = candidates[rng_.index(candidates.size())];
      store_.set_own_value(value_);
      broadcast_ok(out);
      return;
    }

    // Deadend: learn, send upward, drop the recipient's value, retry.
    Nogood learned;
    if (config_.use_resolvent) {
      learning::DeadendContext ctx;
      ctx.own = var_;
      ctx.domain_size = domain_size_;
      ctx.violated = violated;
      ctx.order = this;
      learned = learning::build_resolvent(ctx);
    } else {
      // Classic ABT: the whole agent_view is the nogood (the Nogood ctor
      // canonicalizes, so flat ascending iteration is order-safe).
      const auto view = store_.view_values();
      std::vector<Assignment> items;
      for (std::size_t v = 0; v < view.size(); ++v) {
        if (view[v] != kNoValue) items.push_back({static_cast<VarId>(v), view[v]});
      }
      learned = Nogood(std::move(items));
    }
    ++nogoods_generated_;

    if (learned.empty()) {
      insoluble_ = true;
      return;
    }
    // Lowest-priority member = largest variable id (fixed ABT order).
    const VarId target = learned.items().back().var;
    out.send((*owner_of_var_)[static_cast<std::size_t>(target)],
             sim::NogoodMessage{.sender = id_, .nogood = learned});
    store_.set_view(target, kNoValue);  // optimistically assume the target moves
  }
}

void AbtAgent::broadcast_ok(sim::MessageSink& out) {
  for (AgentId lower : outgoing_) {
    out.send(lower,
             sim::OkMessage{.sender = id_, .var = var_, .value = value_, .priority = 0});
  }
}

std::uint64_t AbtAgent::take_checks() {
  const std::uint64_t c = checks_;
  checks_ = 0;
  return c;
}

}  // namespace discsp::abt

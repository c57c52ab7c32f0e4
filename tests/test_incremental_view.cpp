// Incremental consistency engine: the counter-based violation queries of
// NogoodStore must agree with a brute-force scan over the stored nogoods
// under arbitrary interleavings of adds, removes (the journal-replay path),
// view updates, capacity evictions and crash-style view clears — and the
// agents built on the counters must report the exact same paper metrics as
// the flat-scan path they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/experiment.h"
#include "awc/awc_agent.h"
#include "common/rng.h"
#include "csp/nogood_store.h"
#include "learning/strategy.h"

namespace discsp {
namespace {

// Brute-force reference: indices of the nogoods violated under the store's
// mirrored view with x_own = d, by re-evaluating every stored nogood.
std::vector<std::uint32_t> brute_violated(const NogoodStore& store, Value d) {
  std::vector<std::uint32_t> out;
  const auto lookup = [&](VarId v) {
    return v == store.own() ? d : store.view_value(v);
  };
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.at(i).violated_by(lookup)) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

void expect_counters_match(const NogoodStore& store, int domain_size) {
  for (Value d = 0; d < domain_size; ++d) {
    const auto expected = brute_violated(store, d);
    std::vector<std::uint32_t> got;
    store.violated_with_own(d, got);
    ASSERT_EQ(got, expected) << "own value " << d;
    ASSERT_EQ(store.violated_count(d), expected.size()) << "own value " << d;
  }
  // The per-nogood predicates must agree with the same reference.
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto lookup = [&](VarId v) {
      return v == store.own() ? store.own_binding(i) : store.view_value(v);
    };
    ASSERT_EQ(store.matched_except_own(i), store.at(i).violated_by(lookup)) << i;
    if (store.own_value() != kNoValue) {
      const auto own_lookup = [&](VarId v) {
        return v == store.own() ? store.own_value() : store.view_value(v);
      };
      ASSERT_EQ(store.currently_violated(i), store.at(i).violated_by(own_lookup)) << i;
    }
  }
}

Nogood random_nogood(Rng& rng, VarId own, int num_vars, int domain_size) {
  std::vector<Assignment> items;
  items.push_back({own, static_cast<Value>(rng.index(static_cast<std::size_t>(domain_size)))});
  for (VarId v = 0; v < num_vars; ++v) {
    if (v == own || rng.index(3) != 0) continue;
    items.push_back({v, static_cast<Value>(rng.index(static_cast<std::size_t>(domain_size)))});
  }
  return Nogood(std::move(items));
}

TEST(IncrementalView, CountersMatchBruteForceUnderRandomChurn) {
  constexpr VarId kOwn = 2;
  constexpr int kVars = 6;
  constexpr int kDomain = 3;
  Rng rng(0xfeedULL);
  NogoodStore store(kOwn, kDomain);
  store.set_own_value(0);

  for (int step = 0; step < 2000; ++step) {
    switch (rng.index(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // add (duplicates exercised on purpose)
        store.add(random_nogood(rng, kOwn, kVars, kDomain));
        break;
      }
      case 4:
      case 5:
      case 6: {  // view update, including "unknown"
        VarId v;
        do {
          v = static_cast<VarId>(rng.index(kVars));
        } while (v == kOwn);
        const Value val = rng.index(4) == 0
                              ? kNoValue
                              : static_cast<Value>(rng.index(kDomain));
        store.set_view(v, val);
        break;
      }
      case 7: {  // own move
        store.set_own_value(static_cast<Value>(rng.index(kDomain)));
        break;
      }
      case 8: {  // journal-replay removal by content
        if (store.size() > 0) {
          store.remove(store.at(rng.index(store.size())));
        }
        break;
      }
      case 9: {  // recency signal feeding the LRU eviction
        if (store.size() > 0) {
          store.note_violation(rng.index(store.size()));
        }
        break;
      }
      case 10: {  // tighten/loosen the learned bound (forces evictions)
        store.set_capacity(rng.index(2) == 0 ? 0 : 3 + rng.index(5));
        break;
      }
      case 11: {  // crash: the agent forgets its view
        store.clear_view();
        break;
      }
    }
    expect_counters_match(store, kDomain);
  }
  EXPECT_GT(store.size(), 0u);
}

// Brute-force classification reference: the AWC priority order over a
// store's mirrored view and a flat priority array, queried through the
// virtual PriorityOrder interface the scan path uses.
class ViewOrder final : public learning::PriorityOrder {
 public:
  ViewOrder(const NogoodStore& store, const std::vector<Priority>& priority,
            const Priority& own_priority)
      : store_(store), priority_(priority), own_priority_(own_priority) {}
  Priority priority_of(VarId v) const override {
    if (v == store_.own()) return own_priority_;
    if (store_.view_value(v) == kNoValue) return 0;
    const auto i = static_cast<std::size_t>(v);
    return i < priority_.size() ? priority_[i] : 0;
  }

 private:
  const NogoodStore& store_;
  const std::vector<Priority>& priority_;
  const Priority& own_priority_;
};

// The scan path's rule: higher iff the weakest non-own variable outranks own.
bool weakest_var_is_higher(const ViewOrder& order, const Nogood& ng, VarId own) {
  const VarId weakest = order.weakest_var(ng, own);
  return weakest == kNoVar || order.outranks(weakest, own);
}

TEST(AwcClassify, ArenaClassifierMatchesWeakestVarUnderRandomChurn) {
  // Own sits mid-range so id tie-breaks go both ways; priorities are drawn
  // from a small range so ties are common; the last variable lies past the
  // priority array (it must rank 0, like a variable the view does not know).
  constexpr VarId kOwn = 3;
  constexpr int kVars = 8;
  constexpr int kDomain = 3;
  Rng rng(0xc1a55ULL);
  NogoodStore store(kOwn, kDomain);
  std::vector<Priority> priority(kVars - 1, 0);
  Priority own_priority = 0;
  const ViewOrder order(store, priority, own_priority);
  std::size_t higher_seen = 0;
  std::size_t lower_seen = 0;

  for (int step = 0; step < 3000; ++step) {
    switch (rng.index(10)) {
      case 0:
      case 1:
      case 2: {  // add (duplicates exercised on purpose)
        store.add(random_nogood(rng, kOwn, kVars, kDomain));
        break;
      }
      case 3:
      case 4: {  // view churn, including "unknown"
        VarId v;
        do {
          v = static_cast<VarId>(rng.index(kVars));
        } while (v == kOwn);
        store.set_view(v, rng.index(4) == 0 ? kNoValue
                                            : static_cast<Value>(rng.index(kDomain)));
        break;
      }
      case 5: {  // a neighbour's priority changes (ties included)
        priority[rng.index(priority.size())] = static_cast<Priority>(rng.index(4));
        break;
      }
      case 6: {  // deadend raise: own goes above every known view priority
        Priority max_seen = 0;
        for (std::size_t v = 0; v < priority.size(); ++v) {
          if (store.view_value(static_cast<VarId>(v)) != kNoValue) {
            max_seen = std::max(max_seen, priority[v]);
          }
        }
        own_priority = rng.index(3) == 0 ? static_cast<Priority>(rng.index(4))
                                         : max_seen + 1;
        break;
      }
      case 7: {  // journal-replay removal by content
        if (store.size() > 0) store.remove(store.at(rng.index(store.size())));
        break;
      }
      case 8: {  // own move, and a tighter/looser learned bound (evictions)
        store.set_own_value(static_cast<Value>(rng.index(kDomain)));
        store.set_capacity(rng.index(2) == 0 ? 0 : 3 + rng.index(5));
        break;
      }
      case 9: {  // crash: the agent forgets its view and its priority
        store.clear_view();
        std::fill(priority.begin(), priority.end(), Priority{0});
        own_priority = 0;
        break;
      }
    }
    for (std::size_t idx = 0; idx < store.size(); ++idx) {
      const bool expected = weakest_var_is_higher(order, store.at(idx), kOwn);
      ASSERT_EQ(awc::nogood_outranks_own(store.lit_vars(idx), store.view_values(),
                                         priority, own_priority, kOwn),
                expected)
          << "step " << step << " nogood " << store.at(idx);
      (expected ? higher_seen : lower_seen) += 1;
    }
  }
  EXPECT_GT(higher_seen, 1000u);
  EXPECT_GT(lower_seen, 1000u);
}

TEST(IncrementalView, SurvivesReplayStyleRebuild) {
  // The amnesia-recovery path: rebuild a fresh store, replay add/remove
  // records, then re-learn the view. Counters must match brute force at
  // every stage.
  constexpr VarId kOwn = 0;
  constexpr int kDomain = 3;
  Rng rng(0xabcULL);
  std::vector<Nogood> journal;
  for (int i = 0; i < 40; ++i) journal.push_back(random_nogood(rng, kOwn, 5, kDomain));

  NogoodStore store(kOwn, kDomain);
  for (const Nogood& ng : journal) store.add(ng);
  for (std::size_t i = 0; i < journal.size(); i += 3) store.remove(journal[i]);
  expect_counters_match(store, kDomain);

  store.set_own_value(1);
  for (VarId v = 1; v <= 4; ++v) {
    store.set_view(v, static_cast<Value>(rng.index(kDomain)));
  }
  expect_counters_match(store, kDomain);

  store.clear_view();
  expect_counters_match(store, kDomain);
  store.set_view(2, 1);
  expect_counters_match(store, kDomain);
}

// The incremental path is an optimization, not a semantic change: every
// paper metric an experiment reports must be bit-identical to the flat-scan
// path. Only mean_work_ops — the machine-cost counter — may differ.
void expect_rows_identical_except_work(const analysis::AggregateRow& a,
                                       const analysis::AggregateRow& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.mean_cycles, b.mean_cycles);
  EXPECT_EQ(a.mean_maxcck, b.mean_maxcck);
  EXPECT_EQ(a.solved_percent, b.solved_percent);
  EXPECT_EQ(a.mean_nogoods_generated, b.mean_nogoods_generated);
  EXPECT_EQ(a.mean_redundant_generations, b.mean_redundant_generations);
  EXPECT_EQ(a.median_cycles, b.median_cycles);
  EXPECT_EQ(a.p95_cycles, b.p95_cycles);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.median_maxcck, b.median_maxcck);
  EXPECT_EQ(a.mean_total_checks, b.mean_total_checks);
}

analysis::ExperimentSpec small_spec(analysis::ProblemFamily family, int n) {
  analysis::ExperimentSpec spec;
  spec.family = family;
  spec.n = n;
  spec.instances = 2;
  spec.inits_per_instance = 3;
  spec.seed = 20000704;
  spec.max_cycles = 2000;
  return spec;
}

TEST(IncrementalView, AwcMetricsBitIdenticalToScanPath) {
  const auto spec = small_spec(analysis::ProblemFamily::kColoring3, 24);
  const std::vector<analysis::NamedRunner> incremental = {
      {"Rslv", analysis::awc_runner("Rslv", true, spec.max_cycles, true)}};
  const std::vector<analysis::NamedRunner> scan = {
      {"Rslv", analysis::awc_runner("Rslv", true, spec.max_cycles, false)}};
  const auto a = analysis::run_comparison(spec, incremental);
  const auto b = analysis::run_comparison(spec, scan);
  expect_rows_identical_except_work(a[0], b[0]);
  EXPECT_GT(a[0].mean_total_checks, 0.0);
}

TEST(IncrementalView, AwcOn3SatBitIdenticalToScanPath) {
  // Learning-heavy 3SAT: the counter path's arena classification and its
  // value-independent higher list must reproduce the scan path exactly,
  // including Mcs, whose subset search meters a check per higher candidate.
  const auto spec = small_spec(analysis::ProblemFamily::kSat3, 30);
  for (const char* label : {"Rslv", "Mcs"}) {
    const std::vector<analysis::NamedRunner> incremental = {
        {label, analysis::awc_runner(label, true, spec.max_cycles, true)}};
    const std::vector<analysis::NamedRunner> scan = {
        {label, analysis::awc_runner(label, true, spec.max_cycles, false)}};
    const auto a = analysis::run_comparison(spec, incremental);
    const auto b = analysis::run_comparison(spec, scan);
    SCOPED_TRACE(label);
    expect_rows_identical_except_work(a[0], b[0]);
    EXPECT_GT(a[0].mean_nogoods_generated, 0.0);
  }
}

TEST(IncrementalView, AbtMetricsBitIdenticalToScanPath) {
  const auto spec = small_spec(analysis::ProblemFamily::kColoring3, 16);
  for (bool use_resolvent : {false, true}) {
    const std::vector<analysis::NamedRunner> incremental = {
        {"ABT", analysis::abt_runner(use_resolvent, spec.max_cycles, true)}};
    const std::vector<analysis::NamedRunner> scan = {
        {"ABT", analysis::abt_runner(use_resolvent, spec.max_cycles, false)}};
    const auto a = analysis::run_comparison(spec, incremental);
    const auto b = analysis::run_comparison(spec, scan);
    expect_rows_identical_except_work(a[0], b[0]);
  }
}

TEST(IncrementalView, DbMetricsBitIdenticalToScanPath) {
  const auto spec = small_spec(analysis::ProblemFamily::kSat3, 20);
  const std::vector<analysis::NamedRunner> incremental = {
      {"DB", analysis::db_runner(spec.max_cycles, true)}};
  const std::vector<analysis::NamedRunner> scan = {
      {"DB", analysis::db_runner(spec.max_cycles, false)}};
  const auto a = analysis::run_comparison(spec, incremental);
  const auto b = analysis::run_comparison(spec, scan);
  expect_rows_identical_except_work(a[0], b[0]);
}

TEST(IncrementalView, CounterPathDoesFarLessWorkOn3Sat) {
  // 3SAT with resolvent learning: the scan path re-evaluates whole stores
  // per candidate value while the counters touch only the occurrences of
  // changed variables. End-to-end the ratio grows with n (~3.4x at this
  // CI-friendly n=30, ~5x at the paper's Table-2 sizes); the isolated
  // consistency-kernel ratio is asserted at >= 5x by the bench_micro_core
  // probe (tools/bench_check.py). Here we pin a conservative floor.
  const auto spec = small_spec(analysis::ProblemFamily::kSat3, 30);
  const std::vector<analysis::NamedRunner> incremental = {
      {"Rslv", analysis::awc_runner("Rslv", true, spec.max_cycles, true)}};
  const std::vector<analysis::NamedRunner> scan = {
      {"Rslv", analysis::awc_runner("Rslv", true, spec.max_cycles, false)}};
  const auto a = analysis::run_comparison(spec, incremental);
  const auto b = analysis::run_comparison(spec, scan);
  expect_rows_identical_except_work(a[0], b[0]);
  ASSERT_GT(a[0].mean_work_ops, 0.0);
  EXPECT_GE(b[0].mean_work_ops / a[0].mean_work_ops, 3.0)
      << "scan " << b[0].mean_work_ops << " vs incremental " << a[0].mean_work_ops;
}

}  // namespace
}  // namespace discsp

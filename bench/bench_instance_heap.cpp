// Heap footprint of one held instance: the bytes a DistributedProblem keeps
// allocated, measured as the glibc mallinfo2 delta of an exact-size copy of
// instance 0 (seed 1, n=150) for the two paper families the experiment
// runner holds 100 of at a time. The flat literal size is what the
// constraints' (var, value) pairs alone take.
#include <malloc.h>

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <optional>

#include "analysis/experiment.h"

namespace {

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

}  // namespace

int main() {
  using namespace discsp;
  using analysis::ProblemFamily;
  std::cout << std::fixed << std::setprecision(1);
  for (const ProblemFamily family : {ProblemFamily::kColoring3, ProblemFamily::kSat3}) {
    analysis::ExperimentSpec spec;
    spec.family = family;
    spec.n = 150;
    spec.seed = 1;
    const DistributedProblem instance = analysis::make_instance(spec, 0);
    std::size_t literals = 0;
    for (NogoodView ng : instance.problem().nogoods()) literals += ng.size();

    std::optional<DistributedProblem> copy;
    const std::uint64_t before = heap_in_use_bytes();
    copy.emplace(instance);
    const std::uint64_t after = heap_in_use_bytes();

    std::cout << analysis::family_name(family) << " n=" << spec.n << ": "
              << instance.problem().num_nogoods() << " nogoods, " << literals
              << " literals (" << static_cast<double>(literals * sizeof(Assignment)) / 1024.0
              << " KB flat); DistributedProblem heap "
              << static_cast<double>(after - before) / 1024.0 << " KB\n";
  }
  return 0;
}

#!/usr/bin/env bash
# Full local check: normal build + complete test suite, then a
# ThreadSanitizer build running the concurrency-sensitive tests (serve's
# coordinator and worker threads over the net carriers, plus the fault/chaos
# layer they share), then an ASan+UBSan build running the wire, net-frame
# and DIMACS decoder tests and the chaos suites.
#
# Usage: tools/check.sh [build-dir-prefix]
#   BUILD_DIR=dir   override the build directory prefix (same as argv[1])
#   JOBS=n          override the parallelism (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${BUILD_DIR:-${1:-build}}"
jobs="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

echo "=== normal build + full test suite (${prefix}) ==="
cmake -B "${prefix}" -S . >/dev/null
cmake --build "${prefix}" -j "${jobs}"
ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"

echo
echo "=== ThreadSanitizer build (${prefix}-tsan) ==="
cmake -B "${prefix}-tsan" -S . \
      -DDISCSP_SANITIZE=thread \
      -DDISCSP_BUILD_BENCH=OFF \
      -DDISCSP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${prefix}-tsan" -j "${jobs}" --target discsp_tests

echo "--- TSan: fault layer + net transport tests ---"
# Run the binary directly (no ctest indirection) and fail the whole script
# on any sanitizer report or test failure. The FaultPlan and *Chaos suites
# drive the fault plan, retransmit buffer and channel guard that every serve
# worker builds; NetLoopback* runs coordinator + worker threads over the
# in-proc and TCP transports (the multi-process runtime's real concurrency
# surface), including one serve run per fault kind;
# NetBatching* drives the in-proc ring pipe (SPSC ring + overflow handoff,
# eventcount park/wake) and the coalesced-TCP carrier at batch 1 and 64.
if ! "${prefix}-tsan/tests/discsp_tests" \
    --gtest_filter='FaultPlan*:FaultChaos*:AmnesiaChaos*:PartitionChaos*:CorruptionChaos*:NetLoopback*:NetSupervisor*:NetBatching*'; then
  echo "TSan leg failed." >&2
  exit 1
fi

echo
echo "=== AddressSanitizer build (${prefix}-asan) ==="
cmake -B "${prefix}-asan" -S . \
      -DDISCSP_SANITIZE=address \
      -DDISCSP_BUILD_BENCH=OFF \
      -DDISCSP_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${prefix}-asan" -j "${jobs}" --target discsp_tests

echo "--- ASan+UBSan: wire + net-frame decode fuzz + DIMACS reader + corruption/partition chaos + store churn + AWC classification + Mcs + DB sender slots + retransmit buffer ---"
# The decoder fuzz tests feed adversarial frames straight into the parser;
# Dimacs* feeds the DIMACS reader hostile headers and literals (counts past
# INT_MAX, the most negative long), where a wrapped count or a negated
# literal would be a UBSan report;
# NetFrame* does the same to the net control-frame decoder (bit flips,
# random words, truncated prefixes of every kind, ACK batches whose count
# overflows or disagrees with the length) and walks the stats-word decode,
# which indexes the counter table by a word count taken off the wire;
# RetransmitBuffer* and RetransmitBackoff* drive the retry deadline heap
# (lazy pruning, compaction) and the per-channel dedup watermark against a
# full-scan reference, both indexed by channel arithmetic;
# IncrementalView* churns the nogood store (add/remove/evict/compact against
# a brute-force oracle); AwcClassify* checks the arena classifier, which
# indexes the literal arena and the flat view/priority arrays by store index
# and variable id, against the weakest-variable oracle under the same churn;
# Mcs* drives the subset search, whose resolvent masks shift by resolvent
# position. DbProtocol* and the DB duplication/reordering chaos
# test drive DbAgent's sender -> slot table, which is indexed by a sender id
# taken off the wire (negative, past-the-table and non-neighbor senders).
# AgentHost* covers the host's dense agent table and its channel matrices,
# indexed by sender and receiver ids taken off the wire. ParserFuzz* feeds
# seeded mutants (byte flips, cuts, duplicated lines, huge and negative
# numbers) to the .dcsp, repro bundle, JobSpec, DIMACS and coordinator
# journal parsers. Problem*, DistributedProblem*, Serialize*, CnfToCsp* and
# InstanceDigest* read the flat constraint tables: one literal arena sliced
# by 32-bit offsets, the open-addressing dedup table and the CSR per-agent
# rows, all new index arithmetic. DedupTable*, Cnf* and NogoodStore* churn
# that dedup table itself (power-of-two masks, probe runs that wrap the
# table end, backward-shift erase, repoint after swap-with-last) through its
# three owners, where a wrong slot or index is an out-of-bounds read.
# ASan/UBSan turn any out-of-bounds read or signed overflow into a failure;
# UBSan only reports and carries on unless halt_on_error is set.
if ! UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "${prefix}-asan/tests/discsp_tests" \
    --gtest_filter='WireFormat*:ChannelGuardPolicy*:DcspDigest*:ReproBundle*:MonitorOracle*:PartitionSchedule*:PartitionChaos*:CorruptionChaos*:IncrementalView*:AwcClassify*:Mcs*:DbProtocol*:FaultChaos.DbSolvesUnderDuplicationAndReordering:NetFrame*:Dimacs*:RetransmitBuffer*:RetransmitBackoff*:AgentHost*:ParserFuzz*:Problem*:DistributedProblem*:Serialize*:CnfToCsp*:InstanceDigest*:DedupTable*:Cnf*:NogoodStore*'; then
  echo "ASan leg failed." >&2
  exit 1
fi

echo
echo "All checks passed."

#!/usr/bin/env python3
"""Gate a bench probe JSON against its committed baseline.

Usage: bench_check.py BENCH_x.json [tools/bench_x_baseline.json]

Dispatches on the probe's "probe" field:

table2_3sat_consistency_kernel (BENCH_core.json) fails when:
  - the counter path saves fewer than MIN_WORK_RATIO x constraint-check
    operations over the flat scan (the consistency engine's core claim), or
  - incremental ns/check regressed more than MAX_NS_REGRESSION x against
    the baseline.

net_carrier_throughput (BENCH_net.json) fails when:
  - the batched carrier is less than MIN_TCP_SPEEDUP x faster than the
    seed-equivalent unbatched path on TCP loopback (the comms-overhaul
    acceptance bar), or
  - batched ns/frame regressed more than MAX_NS_REGRESSION x against the
    baseline on either carrier (in-proc has one carrier, the ring pipe).

ns/check and ns/frame are machine-dependent, so the regression bound is
deliberately loose (3x): it catches accidental de-optimization (a dropped
counter, a reintroduced per-frame syscall or allocation), not CPU scatter.
"""
import json
import sys

MIN_WORK_RATIO = 5.0
MAX_NS_REGRESSION = 3.0
MIN_TCP_SPEEDUP = 3.0


def check_core(probe, baseline) -> bool:
    ok = True
    ratio = probe["work_ops_ratio"]
    print(f"work_ops_ratio: {ratio:.1f}x (scan {probe['scan_work_ops']} vs "
          f"incremental {probe['incremental_work_ops']})")
    if ratio < MIN_WORK_RATIO:
        print(f"FAIL: work-op ratio {ratio:.2f} < {MIN_WORK_RATIO}")
        ok = False

    ns = probe["incremental_ns_per_check"]
    print(f"incremental_ns_per_check: {ns:.4f} "
          f"(scan {probe['scan_ns_per_check']:.4f}, "
          f"wall speedup {probe['wall_speedup']:.1f}x)")
    if baseline is not None:
        base_ns = baseline["incremental_ns_per_check"]
        if ns > MAX_NS_REGRESSION * base_ns:
            print(f"FAIL: ns/check {ns:.4f} > {MAX_NS_REGRESSION}x baseline "
                  f"{base_ns:.4f}")
            ok = False
        else:
            print(f"ns/check within {MAX_NS_REGRESSION}x of baseline {base_ns:.4f}")
    return ok


def check_net(probe, baseline) -> bool:
    ok = True
    speedup = probe["tcp_speedup"]
    print(f"tcp: {probe['tcp_unbatched_ns_per_frame']:.1f} -> "
          f"{probe['tcp_batched_ns_per_frame']:.1f} ns/frame ({speedup:.2f}x)")
    print(f"inproc: {probe['inproc_batched_ns_per_frame']:.1f} ns/frame")
    if speedup < MIN_TCP_SPEEDUP:
        print(f"FAIL: tcp batched speedup {speedup:.2f} < {MIN_TCP_SPEEDUP}")
        ok = False
    if baseline is None:
        return ok
    for carrier in ("tcp", "inproc"):
        ns = probe[f"{carrier}_batched_ns_per_frame"]
        base_ns = baseline[f"{carrier}_batched_ns_per_frame"]
        if ns > MAX_NS_REGRESSION * base_ns:
            print(f"FAIL: {carrier} ns/frame {ns:.1f} > "
                  f"{MAX_NS_REGRESSION}x baseline {base_ns:.1f}")
            ok = False
        else:
            print(f"{carrier} ns/frame within {MAX_NS_REGRESSION}x of "
                  f"baseline {base_ns:.1f}")
    return ok


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip())
        return 2
    with open(sys.argv[1]) as f:
        probe = json.load(f)
    baseline = None
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as f:
            baseline = json.load(f)

    kind = probe.get("probe", "table2_3sat_consistency_kernel")
    if baseline is not None and baseline.get("probe", kind) != kind:
        print(f"FAIL: baseline probe {baseline.get('probe')!r} does not "
              f"match {kind!r}")
        return 1
    if kind == "net_carrier_throughput":
        ok = check_net(probe, baseline)
    else:
        ok = check_core(probe, baseline)

    print("bench check:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

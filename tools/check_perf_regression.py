#!/usr/bin/env python3
"""Compare a fresh perf_report against the committed BENCH_simcore.json.

Usage: check_perf_regression.py BASELINE.json FRESH.json [--max-regress=0.20]

Gates on the micro events/sec (and the other micro throughputs) dropping
more than --max-regress below the baseline.  Scenario wall-clock is printed
for context but never gates: CI machines vary too much for a hard wall-time
bound, while the micro throughputs are stable enough for a 20% band.
Beside it, simulated seconds per wall second is printed for the trend (not
gated here): it measures scenario throughput whatever an event costs, so a
change that removes cheap events shows up as the speed-up it is.  The
disabled-hook bands below gate on that rate.

Also gates the router refresh-traffic figures of the scenario probe (both
deterministic, so CI machine variance does not apply):
  * router.refresh_share (HRF refresh msgs / total msgs) must not grow more
    than --max-regress above the committed baseline share, and
  * router_hops_ratio (batched vs per-level lookup hop mean, the in-report
    A/B) must not exceed 1.0 + --max-hops-drift,
so refresh-traffic regressions fail the nightly job like throughput
regressions do.

When the fresh report carries a scenario "shards" block (the same run at
--shards=N), these gates run:
  * replay identity: the N-shard arm must execute exactly the main
    (one-shard) probe's event/message counts, and its audits must stay
    green, and
  * the N-shard speedup over the main probe must reach --min-shard-speedup
    (default 2.0) -- but only when the report's host_cores >= N; on smaller
    hosts the speedup is printed for the trend and not gated.

When the fresh report carries a scenario "trace", "telemetry" or "store"
block (the causal-tracing, windowed load-monitor and paged-store A/Bs on
the same run), each arm gets the same three gates:
  * replay identity: the on arm must execute exactly the main probe's
    event/message counts -- tracing and the monitor rings must never
    perturb the schedule, and at zero simulated I/O latency the paged
    engine is invisible to the protocol.  Hard fail on divergence.
  * the on arm's audits (fatal ring/SLO probes, plus the armed health
    probes on the telemetry arm) must stay green.  Hard fail.
  * disabled-hook overhead: the off arm -- the default state of every run:
    trace and monitor hooks compiled in but idle, the ItemStore facade over
    the in-memory engine -- must keep its simulated seconds per wall second
    (scenario sim_seconds / the arm's off_wall_seconds) within its band
    (--max-trace-overhead, --max-telemetry-overhead, --max-store-overhead;
    default 0.05 each) of the committed baseline's scenario figure.  The
    rate is per simulated second, not per event, so a change that removes
    cheap events reads as the speed-up it is rather than as a slowdown.
    Cross-report and host-sensitive: re-baseline on a runner-class change
    rather than hunting a phantom regression.
  The on arm's wall overhead (and, for the store arm, the buffer hit rate)
  is printed for the trend, not gated.
Exit status: 0 ok, 1 regression, 2 usage/schema error.
"""

import json
import sys

GATED = [
    "events_per_sec",
    "sends_per_sec",
    "timer_fires_per_sec",
    "timer_arm_cancel_per_sec",
]


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        print(__doc__)
        return 2
    max_regress = 0.20
    max_hops_drift = 0.05
    min_shard_speedup = 2.0
    max_trace_overhead = 0.05
    max_telemetry_overhead = 0.05
    max_store_overhead = 0.05
    for o in opts:
        if o.startswith("--max-regress="):
            max_regress = float(o.split("=", 1)[1])
        elif o.startswith("--max-hops-drift="):
            max_hops_drift = float(o.split("=", 1)[1])
        elif o.startswith("--min-shard-speedup="):
            min_shard_speedup = float(o.split("=", 1)[1])
        elif o.startswith("--max-trace-overhead="):
            max_trace_overhead = float(o.split("=", 1)[1])
        elif o.startswith("--max-telemetry-overhead="):
            max_telemetry_overhead = float(o.split("=", 1)[1])
        elif o.startswith("--max-store-overhead="):
            max_store_overhead = float(o.split("=", 1)[1])
        else:
            print(f"unknown option {o}")
            return 2

    with open(args[0]) as f:
        baseline = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    try:
        base_micro = baseline["micro"]
        fresh_micro = fresh["micro"]
    except KeyError:
        print("missing 'micro' block in one of the reports")
        return 2

    failed = False
    for key in GATED:
        base = base_micro.get(key)
        new = fresh_micro.get(key)
        if not base or new is None:
            print(f"  {key:28s} (missing, skipped)")
            continue
        ratio = new / base
        status = "OK"
        if ratio < 1.0 - max_regress:
            status = "REGRESSED"
            failed = True
        print(f"  {key:28s} {base:>14,.0f} -> {new:>14,.0f}"
              f"  ({ratio:6.2%})  {status}")

    for report, label in ((baseline, "baseline"), (fresh, "fresh")):
        scn = report.get("scenario")
        if scn:
            rate = scn.get("sim_seconds_per_wall_second")
            rate_txt = f"  {rate:.1f} sim s/wall s" if rate is not None else ""
            print(f"  scenario wall ({label:8s})      {scn['wall_seconds']:.1f}s"
                  f"{rate_txt}  audits_ok={scn.get('fatal_audits_ok')}"
                  f"  (trend only)")

    fresh_scn = fresh.get("scenario")
    if fresh_scn and fresh_scn.get("fatal_audits_ok") is False:
        print("fresh scenario run had audit violations")
        failed = True
    if fresh_scn and fresh_scn.get("router_baseline_audits_ok") is False:
        print("fresh router-baseline (A/B) run had audit violations")
        failed = True

    # --- Router refresh-traffic gates (deterministic figures) ---------------
    base_share = (baseline.get("scenario") or {}).get("router", {}).get(
        "refresh_share")
    fresh_share = (fresh_scn or {}).get("router", {}).get("refresh_share")
    if base_share and fresh_share is not None:
        # Small absolute epsilon so a near-zero baseline share doesn't turn
        # rounding noise into a failure.
        bound = base_share * (1.0 + max_regress) + 0.005
        status = "OK"
        if fresh_share > bound:
            status = "REGRESSED"
            failed = True
        print(f"  router.refresh_share         {base_share:14.4f} -> "
              f"{fresh_share:14.4f}  (bound {bound:.4f})  {status}")
    elif fresh_share is not None:
        print(f"  router.refresh_share         (no baseline)  "
              f"{fresh_share:.4f}")

    hops_ratio = (fresh_scn or {}).get("router_hops_ratio")
    if hops_ratio is not None:
        # One-sided: fewer hops than the per-level baseline is fine; the
        # gate exists so cheap refresh never quietly buys worse routing.
        status = "OK"
        if hops_ratio > 1.0 + max_hops_drift:
            status = "REGRESSED"
            failed = True
        print(f"  router_hops_ratio (A/B)      {hops_ratio:14.3f}"
              f"  (bound {1.0 + max_hops_drift:.2f})  {status}")

    # --- N-shard gates (same-report, machine-independent) -------------------
    sh = (fresh_scn or {}).get("shards")
    if sh:
        if sh.get("parallel_audits_ok") is False:
            print("N-shard scenario run had audit violations")
            failed = True
        if sh.get("replay_identical") is False:
            print("N-shard run diverged from the one-shard schedule")
            failed = True
        # Parallel speedup: only meaningful when the host actually has the
        # cores; a 1-core runner records speedup for the trend but cannot
        # gate on it.
        speedup = sh.get("speedup")
        cores = sh.get("host_cores", 0)
        n = sh.get("n", 0)
        if speedup is not None:
            if cores >= n:
                status = "OK"
                if speedup < min_shard_speedup:
                    status = "REGRESSED"
                    failed = True
                print(f"  shards={n} speedup             {speedup:14.2f}x"
                      f"  (bound {min_shard_speedup:.2f}x)  {status}")
            else:
                print(f"  shards={n} speedup             {speedup:14.2f}x"
                      f"  (not gated: host_cores={cores} < {n})")

    # --- Hook A/B arms: trace, telemetry, paged store -------------------------
    # Each arm replays the main probe with one subsystem armed; its off arm
    # is the main probe itself (every hook idle).
    base_scn = baseline.get("scenario") or {}
    base_rate = base_scn.get("sim_seconds_per_wall_second")
    fresh_sim_s = (fresh_scn or {}).get("sim_seconds")
    for key, band, diverged in (
            ("trace", max_trace_overhead,
             "tracing-on run diverged from the tracing-off schedule"),
            ("telemetry", max_telemetry_overhead,
             "telemetry-on run diverged from the telemetry-off schedule"),
            ("store", max_store_overhead,
             "paged-store run diverged from the in-memory schedule "
             "at zero I/O latency")):
        arm = (fresh_scn or {}).get(key)
        if not arm:
            continue
        if arm.get("replay_identical") is False:
            print(diverged)
            failed = True
        if arm.get("on_audits_ok") is False:
            print(f"{key}-on run had audit violations")
            failed = True
        off_wall = arm.get("off_wall_seconds")
        if fresh_sim_s and off_wall:
            rate = fresh_sim_s / off_wall
            if base_rate:
                ratio = rate / base_rate
                status = "OK"
                if ratio < 1.0 - band:
                    status = "REGRESSED"
                    failed = True
                print(f"  {key + '-off vs baseline':28s} {base_rate:14.1f} -> "
                      f"{rate:14.1f} sim s/wall s  ({ratio:6.2%})  {status}")
            else:
                print(f"  {key + '-off vs baseline':28s} (no baseline)  "
                      f"{rate:.1f} sim s/wall s")
        overhead = arm.get("overhead_ratio")
        if overhead is None:
            continue
        if key == "trace":
            detail = (f"1-in-{arm.get('on_sample_every', '?')}, "
                      f"{arm.get('on_records', 0):,} records")
        elif key == "store":
            detail = (f"hit rate {arm.get('hit_rate', 1.0):.4f}, "
                      f"{arm.get('buffer_faults', 0):,} faults")
        else:
            detail = "armed"
        print(f"  {key + '-on overhead':28s} {overhead:14.3f}x wall"
              f"  ({detail})  (trend only)")

    print("perf check:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""The repository benchmark: builds the benchmark binary, runs one workload for a
fixed time budget, checks every result, and prints one JSON result line.

    python3 perfbench/run.py --workload join-storm --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --check-counts

Each iteration is one process of the `perfbench` binary (one closed batch:
set-up, every API call, quiescence or measured silence, oracle check), so
`peak_rss_mib` is the high-water mark of a process that ran only that
workload. The simulator workloads run two iterations side by side, one per
core (see LANES). An untraced run (`--trace 0`) repeats untraced iterations
and reports the median of each end-to-end metric over all of them. A traced
run (`--trace 1`) alternates untraced and traced iterations: the traced
ones give the per-layer metrics, self times derived from their span files,
and the pair gives the tracing overhead on `converge_s`.

`--check-counts` runs every workload on its main seed and its held-back seed
(see README.md) a few times each and compares the work counts exactly.

The workload seed is this script's argument; the binary receives it only to
generate its inputs. Run from the repository root.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("join-storm", "churn", "node-chain")
SIM_WORKLOADS = ("join-storm", "churn")
MAIN_SEED, HELD_BACK_SEED = 1, 2
# Iterations run side by side per workload, one process per lane, each lane
# pinned to its own core. The host's speed wanders independently per core,
# so a simulator run's median spans two cores instead of one. `node-chain`
# already keeps both cores busy with its two node threads.
LANES = {"join-storm": 2, "churn": 2, "node-chain": 1}
# At most the host's two busy threads: the planner's worker pool is capped
# at the cores left to each lane.
BUSY_THREADS = 2
# A hung iteration is killed early enough for the run to end within 180 s.
ITERATION_TIMEOUT_S = 120
MIN_UNTRACED = 3
MIN_TRACED = 2
CHECK_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "converge_s": "s",
    "total_s": "s",
    "peak_rss_mib": "MiB",
    "packets_per_session": "count",
    "notifications_per_session": "count",
}

PACKET_KINDS = ("join", "probe", "response", "update", "bottleneck", "set_bottleneck", "leave")
FRAME_KINDS = ("packet", "data", "ack", "join", "leave", "change", "shutdown")

# Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "net.build": "net.build_s",
    "workload.plan": "workload.plan_s",
    "core.new": "core.new_s",
    "core.apply": "core.apply_s",
    "sim.run": "sim.run_s",
    "core.snapshot": "core.snapshot_s",
    "maxmin.solve": "maxmin.solve_s",
    "maxmin.compare": "maxmin.compare_s",
    "node.plan": "node.plan_s",
    "node.spawn": "node.spawn_s",
    "node.join_calls": "node.join_calls_s",
    "node.shutdown": "node.shutdown_s",
}
# Phase spans: their self time is the benchmark's own time.
PHASE_SPANS = ("iteration", "setup", "converge", "check")

PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "workload.schedule_events": "count",
    "core.join_us": "us",
    "core.leave_us": "us",
    "core.change_us": "us",
    "core.rejected": "count",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim_quiescence_ms": "ms",
    **{f"core.packets.{k}": "count" for k in PACKET_KINDS},
    "node.silence_latency_s": "s",
    "node.silence_confirm_s": "s",
    **{f"node.packets.{k}": "count" for k in PACKET_KINDS},
    "node.packets_max_node": "count",
    "node.packets_min_node": "count",
    "node.local_deliveries": "count",
    "node.packets_spread_pct": "%",
    "transport.frames": "count",
    "transport.bytes": "B",
    "transport.send_s": "s",
    "transport.frames_recv": "count",
    **{f"codec.frames.{k}": "count" for k in FRAME_KINDS},
    "codec.decode_ns_per_frame": "ns",
    "codec.encode_ns_per_frame": "ns",
    "bench.self_s": "s",
    "trace.overhead_pct": "%",
}

# Work counts that must repeat exactly between iterations at one seed on the
# (deterministic) simulator workloads.
EXACT_COUNTS = (
    "ops",
    "notifications",
    "sim.events",
    "sim_quiescence_ms",
    "workload.schedule_events",
    *(f"core.packets.{k}" for k in PACKET_KINDS),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary from source; returns its path or None."""
    if not (ROOT / "crates").is_dir():
        log("perfbench: no crates/ next to perfbench/; run from a repository checkout")
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)]
    env = {**os.environ, "CARGO_TARGET_DIR": str(target_dir())}
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("perfbench: build failed")
        return None
    binary = target_dir() / "release" / "perfbench"
    return binary if binary.is_file() else None


def lane_cpus(lanes):
    """One core per lane when the process may use enough of them, else none."""
    cpus = sorted(os.sched_getaffinity(0))
    if lanes == 1 or len(cpus) < lanes:
        return [None] * lanes
    return [{cpu} for cpu in cpus[:lanes]]


def batch(binary, workload, seed, spans=None):
    """Runs one iteration per lane side by side; returns their parsed
    results, or None if any of them failed. `spans(lane)` names a traced
    iteration's span file."""
    lanes = LANES[workload]
    env = {**os.environ, "BNECK_THREADS": str(max(1, BUSY_THREADS // lanes))}
    procs = []
    try:
        for lane, cpus in enumerate(lane_cpus(lanes)):
            cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
            if spans is not None:
                cmd += ["--spans", str(spans(lane))]
            out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, text=True, env=env)
            procs.append((proc, out, err))
            if cpus is not None:
                # An iteration that already exited fails below on its own.
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(proc.pid, cpus)
        deadline = time.monotonic() + ITERATION_TIMEOUT_S
        for proc, _, _ in procs:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed}: iteration timed out")
        return None
    finally:
        for proc, _, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for lane, (proc, out, err) in enumerate(procs):
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
        out.close()
        err.close()
        if proc.returncode != 0 or not stdout.strip():
            log(f"perfbench: {workload} seed {seed}: exit {proc.returncode}\n{stderr}")
            return None
        result = json.loads(stdout.strip().splitlines()[-1])
        values = result["values"]
        log(f"perfbench: {workload} seed {seed} lane {lane}{' traced' if spans else ''}: "
            f"setup_s {values['setup_s']:.4f} converge_s {values['converge_s']:.4f}")
        if spans is not None:
            values.update(self_times(spans(lane), values))
        results.append(result)
    return results


def covered(intervals):
    """Total length of the union of `(start, end)` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(path, values):
    """Per-layer self times (seconds) from one iteration's span file."""
    spans = [json.loads(line) for line in path.read_text().splitlines() if line]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {metric: 0.0 for metric in SPAN_METRICS.values()}
    out["bench.self_s"] = 0.0
    silence_call = 0.0
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - covered(children.get(s["id"], []))
        if s["name"] in SPAN_METRICS:
            out[SPAN_METRICS[s["name"]]] += own / 1e9
        elif s["name"] in PHASE_SPANS:
            out["bench.self_s"] += own / 1e9
        elif s["name"] == "node.await_silence":
            silence_call += own / 1e9
    if silence_call:
        out["node.silence_confirm_s"] = silence_call - values.get("node.silence_latency_s", 0.0)
    events = values.get("sim.events", 0.0)
    out["sim.ns_per_event"] = out["sim.run_s"] * 1e9 / events if events else 0.0
    return out


def packet_totals(results):
    return [sum(r["values"].get(f"core.packets.{k}", 0) for k in PACKET_KINDS) for r in results]


def counts_steady(workload, results):
    """Compares work counts across iterations; logs and returns steadiness."""
    if workload not in SIM_WORKLOADS:
        totals = packet_totals(results)
        log(f"perfbench: {workload} packets per iteration: min {min(totals):.0f} "
            f"max {max(totals):.0f} spread {spread_pct(totals):.3f}%")
        return True
    steady = True
    for key in EXACT_COUNTS:
        seen = {r["values"].get(key) for r in results}
        if len(seen) > 1:
            log(f"perfbench: UNSTEADY {workload}: {key} differs between iterations: {sorted(seen)}")
            steady = False
    return steady


def spread_pct(values):
    median = statistics.median(values)
    return (max(values) - min(values)) / median * 100 if median else 0.0


def run(binary, workload, seed, seconds, trace):
    """Repeats batches of iterations for `seconds`; returns (untraced,
    traced) results."""
    untraced, traced, walls = [], [], []
    spans_dir = target_dir() / "perfbench-traces"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    begin = time.monotonic()
    while True:
        enough = len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_UNTRACED
        elapsed = time.monotonic() - begin
        if enough and elapsed + statistics.median(walls) > seconds:
            break
        t = time.monotonic()
        results = batch(binary, workload, seed)
        if results is None:
            return None
        untraced += results
        if trace:
            pair = len(walls)
            results = batch(binary, workload, seed,
                            lambda lane: spans_dir / f"{workload}-s{seed}-i{pair}-l{lane}.jsonl")
            if results is None:
                return None
            traced += results
        walls.append(time.monotonic() - t)
    return untraced, traced


def median_of(results, key):
    return statistics.median(r["values"].get(key, 0.0) for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=MAIN_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-counts", action="store_true",
                        help="compare work counts at the main and held-back seeds")
    args = parser.parse_args()
    if not args.check_counts and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.check_counts:
        return check_counts(binary)

    outcome = run(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if outcome is None:
        return 1
    untraced, traced = outcome
    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    gate = all(r["gate_bites"] for r in everything)
    if not gate:
        log("perfbench: the oracle gate did not count a perturbed allocation as failed")
    steady = counts_steady(args.workload, everything)
    log(f"perfbench: {args.workload} seed {args.seed}: {len(untraced)} untraced, "
        f"{len(traced)} traced iterations; attempted {attempted}, failed {failed}")

    if args.trace:
        metrics = {name: median_of(traced, name) for name in PER_LAYER}
        if args.workload not in SIM_WORKLOADS:
            metrics["node.packets_spread_pct"] = spread_pct(packet_totals(everything))
        base = median_of(untraced, "converge_s")
        metrics["trace.overhead_pct"] = (median_of(traced, "converge_s") - base) / base * 100
        units = PER_LAYER
    else:
        metrics = {name: median_of(untraced, name) for name in END_TO_END}
        units = END_TO_END
    correct = failed == 0 and gate and steady
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def check_counts(binary):
    """Runs each workload a few times at the main and held-back seeds."""
    ok = True
    for workload in WORKLOADS:
        for seed in (MAIN_SEED, HELD_BACK_SEED):
            results = []
            while len(results) < CHECK_REPEATS:
                lane_results = batch(binary, workload, seed)
                if lane_results is None:
                    return 1
                results += lane_results
            steady = counts_steady(workload, results)
            ok &= steady and all(r["failed"] == 0 for r in results)
            log(f"check-counts {workload} seed {seed}: packets {sorted(set(packet_totals(results)))} "
                f"events {sorted({r['values'].get('sim.events', 0) for r in results})} "
                f"{'steady' if steady else 'UNSTEADY'}")
    print(json.dumps({"counts_steady": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""smallcover benchmark: wall time, set-up time and memory of exact answers.

    python3 bench/run.py --workload table1 --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --seconds 36            # every workload, one table
    python3 bench/run.py --seconds 36 --trace 1  # per-layer metrics instead

Load is a closed loop from one client: samples run one after another, each
in a fresh Python process (``sample.py``), so every cache of the package
starts cold as it does for a command-line user.  A sample sets the workload
up once and repeats its timed operation within its share of ``--seconds``.
Every operation's output is checked against the outputs recorded at the
seed commit, and a wrong answer counts as a failed operation.  Times are
scaled to a reference host speed (see ``sample.calibrate``).

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run.  With ``--trace 1`` the second sample is traced and the others are
not; the metrics are the per-layer ones from the traced operations, plus
the tracing overhead (traced minus untraced wall time).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sample import ROOT, WORKLOADS
from tracer import EXACT_COUNTS, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

# A sample that runs longer than this is treated as hung.
SAMPLE_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": ("s", "timed part of one operation"),
    "peak_rss_mb": ("MB", "peak resident memory of a sample's process"),
    "setup_s": ("s", "process start to the start of the timed part"),
    "instance_p50_ms": ("ms", "median over the instances of their latency"),
    "instance_p98_ms": ("ms", "98th percentile over the instances of their latency"),
}


class SampleError(RuntimeError):
    pass


def run_sample(workload: str, seed: int, deadline: float, trace: bool,
               spans: Path | None) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--deadline", repr(deadline),
           "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SampleError(f"sample of {workload} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SampleError(f"sample of {workload} printed no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """The workload's number of samples, each given an equal share of the
    time left; with tracing, the second one is traced and the others not."""
    deadline = time.monotonic() + seconds
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    samples: list[dict] = []
    processes = WORKLOADS[workload].processes
    for i in range(processes):
        share = time.monotonic() + (deadline - time.monotonic()) / (processes - i)
        traced = trace and i % 2 == 1
        s = run_sample(workload, seed, share, traced, spans if traced else None)
        s["traced"] = traced
        samples.append(s)
    return samples


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, samples: list[dict]) -> dict[str, float]:
    """Medians over the run.  Every operation of a run analyses the same
    instances in the same order, so an instance's latency is the median of
    its repeats, which keeps the host's noise out of the percentiles; the
    percentiles are taken over the workload's instances."""
    walls = [w for s in samples for w in s["wall_s"]]
    n = WORKLOADS[workload].instances
    repeats = [s["instance_s"][i:i + n] for s in samples
               for i in range(0, len(s["instance_s"]), n)]
    latencies = [statistics.median(op[k] for op in repeats) * 1000 for k in range(n)]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "instance_p50_ms": statistics.median(latencies),
        "instance_p98_ms": percentile(latencies, 98),
    }


def per_layer(workload: str, samples: list[dict], reference: dict) -> tuple[dict, bool]:
    """Median per-layer metrics of the traced operations, and whether the
    traced run is consistent: exact counts repeat and self times tile."""
    ops = [m for s in samples if s["traced"] for m in s["layers"]]
    untraced = [w for s in samples if not s["traced"] for w in s["wall_s"]]
    ok = True
    for name in EXACT_COUNTS:
        values = {op[name] for op in ops}
        if len(values) > 1:
            print(f"{workload}: exact count {name} differs between operations: "
                  f"{sorted(values)}", file=sys.stderr)
            ok = False
    for op in ops:
        if abs(op["trace.self_sum_s"] - op["trace.wall_s"]) > 1e-6:
            print(f"{workload}: self times sum to {op['trace.self_sum_s']}, "
                  f"traced wall is {op['trace.wall_s']}", file=sys.stderr)
            ok = False
    recorded = reference.get("counts", {}).get(workload, {})
    for name, value in recorded.items():
        if ops and ops[0][name] != value:
            print(f"{workload}: changed workload, not a speed change: {name} = "
                  f"{ops[0][name]}, the seed commit recorded {value}", file=sys.stderr)
    # The untraced wall time and the overhead come from the untraced samples.
    metrics = {name: statistics.median(op[name] for op in ops)
               for name in LAYER_METRICS if name in ops[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    skipped = {h for s in samples for h in s["skipped_hooks"]}
    if skipped:
        print(f"{workload}: hooks not found, their metrics read 0: {sorted(skipped)}",
              file=sys.stderr)
    return metrics, ok


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    samples = collect(workload, seed, seconds, trace)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    candidates = {s["candidates"] for s in samples}
    if len(candidates) > 1:
        print(f"{workload}: set-up drew different numbers of candidates from one "
              f"seed: {sorted(candidates)}", file=sys.stderr)
    correct = failed == 0 and len(candidates) == 1
    if trace:
        values, consistent = per_layer(workload, samples, reference)
        correct = correct and consistent
        units = {k: LAYER_METRICS[k][0] for k in values}
    else:
        values = end_to_end(workload, samples)
        units = {k: END_TO_END[k][0] for k in values}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "samples": len(samples),
        "operations": sum(len(s["wall_s"]) for s in samples if s["traced"] == trace),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def describe(workload: str, result: dict, trace: bool) -> None:
    print(f"== {workload}: {result['samples']} processes, {result['operations']} "
          f"timed operations, {result['failed']}/{result['attempted']} failed, "
          f"correct={result['correct']}")
    metrics = result["metrics"]
    table = LAYER_METRICS if trace else END_TO_END
    for name, m in metrics.items():
        note = table[name][1]
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} {note}")
    if trace:
        self_sum = metrics["trace.self_sum_s"]["value"]
        untraced = metrics["trace.untraced_wall_s"]["value"]
        print(f"  self times sum to {self_sum:.4f} s against an untraced wall of "
              f"{untraced:.4f} s; tracing overhead {metrics['trace.overhead_s']['value']:.4f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload and end with its JSON result; "
                   "without it, every workload is run and described")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "smallcover" / "__init__.py").is_file():
        print(f"no smallcover package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for w, result in results.items():
        describe(w, result, bool(args.trace))
    if args.workload:
        result = results[args.workload]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                                  "metrics")}))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 3


if __name__ == "__main__":
    sys.exit(main())

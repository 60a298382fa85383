"""One benchmark sample: a fresh process sets up one workload and times it.

    python3 bench/sample.py --workload table1 --seed 0 --t0 <monotonic> \
        --deadline <monotonic> --trace 0

The process imports smallcover from ``src/`` of the checkout that holds this
file, builds the workload's inputs from the seed, then repeats the timed
operation while it can end before ``--deadline`` (at least once).
Every operation is checked against the outputs recorded at the seed commit
in ``reference.json``.  The last line of stdout is one JSON object with the
sample's measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

from tracer import LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# The acceptance suite's fuzz corpus sizes; seeds come from --seed instead.
FUZZ_PLAN = (
    ("cross3", 140),
    ("cross4", 70),
    ("gon6", 100),
    ("gon9", 60),
    ("rp3", 90),
    ("rp4", 70),
)


def import_package():
    """Import smallcover from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "smallcover" / "__init__.py").is_file():
        raise SystemExit(f"no smallcover package under {src}")
    sys.path.insert(0, str(src))
    import smallcover

    if Path(smallcover.__file__).resolve().parent != (src / "smallcover").resolve():
        raise SystemExit(f"imported smallcover from {smallcover.__file__}, not {src}")


# Operation time between two timings of the kernel.
CHUNK_S = 0.4
# Time of calibrate() on the reference machine (2-core Intel Xeon, Python
# 3.11.7) when the host is not slowed by its neighbours.
CAL_REF_S = 0.065


def calibrate() -> float:
    """Time a fixed pure-Python kernel: dict updates, integer bit operations
    and a sort, as the package does, in a few hundred kilobytes.

    The host is shared, and its speed drifts by up to a factor of two over
    seconds to minutes.  Each stretch of a timed operation is scaled by
    CAL_REF_S over the mean kernel time measured just before and just after
    it (see run_steps), so times are reported at the reference machine's
    speed and the drift cancels.
    """
    t = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    for i in range(200000):
        k = (i * 2654435761) & 0xFFF
        counts[k] = counts.get(k, 0) + 1
        acc ^= (k << 7) | i
    acc += len(sorted(counts.items()))
    return time.perf_counter() - t


# ----- fuzz corpus -----------------------------------------------------------


def fuzz_corpus(seed: int, plan=FUZZ_PLAN) -> tuple[list[str], int]:
    """Rejection-sample the corpus the way ``smallcover fuzz`` does.

    Returns the emitted instance documents and the number of candidate
    matrices drawn.  Each complex gets its own generator seeded from
    ``seed`` and the complex name.  The documents are shuffled, so that the
    slowest complexes are spread over the whole timed part instead of one
    stretch of it, where a brief slowdown of the host would move the tail.
    """
    from smallcover import cli, instancefile

    texts = []
    candidates = 0
    for name, count in plan:
        rng = random.Random(f"{seed}/{name}")
        for k in range(count):
            chi, rejected = cli.sample_random_instance(name, rng)
            candidates += rejected + 1
            texts.append(instancefile.emit_instance(f"{name}-{k}", chi.complex, chi))
    random.Random(f"{seed}/order").shuffle(texts)
    return texts, candidates


def canonical_key(text: str) -> tuple[str, str]:
    """(complex name, columns in the basis of the first facet's columns).

    The reports depend on the matrix only up to the left GL(n, 2) action,
    and rewriting every column in the basis formed by the first facet's
    columns picks one matrix per orbit.  Computed here, independently of
    the package, from the JSON document alone.
    """
    doc = json.loads(text)
    n = doc["n"]
    labels = doc["vertices"]
    rows = doc["lambda"]
    cols = [sum(rows[i][j] << i for i in range(n)) for j in range(len(labels))]
    first = sorted(doc["facets"])[0]
    basis = [cols[labels.index(v)] for v in first]
    # Echelon form of the basis, remembering each row as a combination of
    # the basis vectors, so every column can be solved for its coordinates.
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, vector, combination)
    for i, b in enumerate(basis):
        v, comb = b, 1 << i
        for bit, pv, pc in sorted(pivots, reverse=True):
            if v >> bit & 1:
                v ^= pv
                comb ^= pc
        if not v:
            raise ValueError("first facet's columns are dependent")
        pivots.append((v.bit_length() - 1, v, comb))
    coords = []
    for c in cols:
        v, comb = c, 0
        for bit, pv, pc in sorted(pivots, reverse=True):
            if v >> bit & 1:
                v ^= pv
                comb ^= pc
        if v:
            raise ValueError("column outside the span of the first facet")
        coords.append(format(comb, "x"))
    return doc["name"].rsplit("-", 1)[0], ".".join(coords)


def fuzz_summary(M, report, flip_label) -> dict:
    """The parts of an instance's result that the reference records."""
    out = {
        "conditions": {str(k): v for k, v in sorted(report.conditions.items())},
        "verdict": report.verdict,
        "labels": [report.classification.label.value, flip_label],
    }
    if report.betti is not None:
        out["betti"] = [list(report.betti.b), list(report.betti.b_mod2),
                        list(report.betti.mu)]
    if report.integral is not None:
        out["integral"] = {str(q): [g.rank, list(g.torsion)]
                           for q, g in sorted(report.integral.groups.items())}
    return out


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----- workloads --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured; its timing line on stderr is dropped."""
    from smallcover import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Table1:
    """The flagship command; one step per operation."""

    instances = 1
    processes = 3
    candidates = 0

    def setup(self, seed):
        return None

    def steps(self, inputs):
        return [lambda: run_cli(["table1"])]

    def failures(self, inputs, results, reference) -> int:
        return int(results[0] != (0, reference["table1_stdout"]))


class Bier9Analyze:
    """A full JSON analyze of the catalog's bier9 file; one step."""

    instances = 1
    processes = 3
    candidates = 0

    def setup(self, seed):
        from smallcover import catalog, instancefile

        entry = catalog.get_entry("bier9")
        OUT.mkdir(exist_ok=True)
        path = OUT / "bier9.json"
        path.write_text(instancefile.emit_instance(entry.name, entry.complex, entry.chi),
                        encoding="utf-8")
        return str(path)

    def steps(self, path):
        return [lambda: run_cli(["analyze", path, "--format", "json"])]

    def failures(self, inputs, results, reference) -> int:
        result = results[0]
        if result is None or result[0] != 0:
            return 1
        return int(hashlib.sha256(result[1].encode()).hexdigest() != reference["bier9_sha256"])


class FuzzCorpus:
    """Analyse each instance and cross-check both classifiers, as
    ``smallcover fuzz`` does; one step per instance.  Set-up takes about
    three times as long as the timed operation, so a run uses two
    processes instead of three."""

    instances = sum(count for _, count in FUZZ_PLAN)
    processes = 2
    candidates = 0

    def setup(self, seed):
        texts, self.candidates = fuzz_corpus(seed)
        return texts

    def steps(self, texts):
        from smallcover import charmap, cover, instancefile

        def analyse(text):
            K, chi = instancefile.parse_instance(text)
            M = cover.RealToricSpace(K, chi)
            report = cover.evaluate_conditions(M)
            flips = charmap.classify_via_flips(chi)
            return fuzz_summary(M, report, flips.label.value)

        return [partial(analyse, text) for text in texts]

    def failures(self, texts, results, reference) -> int:
        table = reference["fuzz"]
        failed = 0
        for text, summary in zip(texts, results):
            name, key = canonical_key(text)
            expected = table.get(name, {}).get(key)
            if summary is None or expected is None or digest(summary) != expected:
                failed += 1
        return failed


def run_steps(steps, cal: float, interrupt: bool):
    """Run one operation's steps, timing the kernel every CHUNK_S.

    With ``interrupt``, a SIGALRM timer breaks the operation into segments
    of CHUNK_S, even inside one long step, and the handler times the kernel
    between them; the handler's own time belongs to no segment.  Returns
    the step results (None for a step that raised), each step's
    (start, end) and the segments as (start, end, kernel time before).
    """
    segments = []
    state = [time.perf_counter(), cal, True]  # segment start, kernel before, active

    def on_alarm(signum, frame):
        if not state[2]:
            return
        segments.append((state[0], time.perf_counter(), state[1]))
        state[1] = calibrate()
        state[0] = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CHUNK_S)

    if interrupt:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_S)
    results, bounds = [], []
    try:
        for step in steps:
            t = time.perf_counter()
            try:
                result = step()
            except Exception as exc:  # noqa: BLE001 - a failed step is counted
                print(f"step raised {type(exc).__name__}: {exc}", file=sys.stderr)
                result = None
            bounds.append((t, time.perf_counter()))
            results.append(result)
    finally:
        state[2] = False
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    segments.append((state[0], time.perf_counter(), state[1]))
    return results, bounds, segments


def scaled_times(bounds, segments, cal_after: float) -> list[float]:
    """Each step's time at the reference speed: every segment it overlaps is
    scaled by CAL_REF_S over the mean kernel time before and after it."""
    after = [seg[2] for seg in segments[1:]] + [cal_after]
    scales = [2 * CAL_REF_S / (seg[2] + a) for seg, a in zip(segments, after)]
    times = []
    k = 0
    for t0, t1 in bounds:
        while segments[k][1] <= t0 and k + 1 < len(segments):
            k += 1
        total = 0.0
        j = k
        while j < len(segments) and segments[j][0] < t1:
            total += max(0.0, min(t1, segments[j][1]) - max(t0, segments[j][0])) * scales[j]
            j += 1
        times.append(total)
    return times


WORKLOADS = {
    "table1": Table1,
    "bier9_analyze": Bier9Analyze,
    "fuzz_corpus": FuzzCorpus,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline", type=float, required=True,
                   help="time.monotonic() after which no operation starts that "
                   "would not end before it; at least one operation runs")
    p.add_argument("--spans", help="write the spans of this sample here (JSON lines)")
    args = p.parse_args(argv)

    cal_start = calibrate()
    import_package()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]()
    setup_root = tracer.begin("bench.setup") if tracer else None
    inputs = workload.setup(args.seed)
    if tracer:
        tracer.end(setup_root)
    # The kernel timed before the import is the benchmark's, not set-up.
    setup_s = time.monotonic() - args.t0 - cal_start

    cal = calibrate()
    setup_s *= 2 * CAL_REF_S / (cal_start + cal)
    walls: list[float] = []
    raw_walls: list[float] = []
    instance_s: list[float] = []
    failed = 0
    layers = []
    peak_rss_mb = None
    longest = 0.0  # the longest operation, with its kernel timings
    while not walls or time.monotonic() + longest <= args.deadline:
        started = time.monotonic()
        steps = workload.steps(inputs)
        root = None
        if tracer:
            tracer.run_id += 1
            root = tracer.begin("bench.op")
        # The kernel would land inside the spans of a traced operation, so
        # a traced operation is timed as one segment.
        results, bounds, segments = run_steps(steps, cal, interrupt=tracer is None)
        if tracer:
            tracer.end(root)
        cal = calibrate()
        longest = max(longest, time.monotonic() - started)
        times = scaled_times(bounds, segments, cal)
        raw = sum(end - start for start, end, _ in segments)
        if peak_rss_mb is None:
            # A command-line user runs one operation per process.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw_walls.append(raw)
        walls.append(sum(times))
        instance_s.extend(times)
        failed += workload.failures(inputs, results, reference)
        if tracer:
            m = tracer.op_metrics(root, setup_root, workload.candidates,
                                  workload.instances)
            scale = sum(times) / raw
            layers.append({k: v * scale if LAYER_METRICS[k][0] in ("s", "ms") else v
                           for k, v in m.items()})
            tracer.forget()
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": walls,
        "raw_wall_s": raw_walls,
        "instance_s": instance_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.instances * len(walls),
        "failed": failed,
        "candidates": workload.candidates,
        "layers": layers,
        "skipped_hooks": tracer.skipped if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the outputs the benchmark checks against, from the current tree.

    python3 bench/record_reference.py

Run it once, at the commit whose outputs are the reference; it rewrites
``bench/reference.json``.  The fuzz corpus is drawn at random, so instead of
a corpus it records every possible fuzz instance: for each complex of the
plan, every valid matrix with the first facet's columns fixed to the unit
vectors, which is one matrix per GL(n, 2) orbit.  A sampled instance is
looked up by its canonical key (see ``sample.canonical_key``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from sample import BENCH, FUZZ_PLAN, WORKLOADS, canonical_key, digest, import_package, run_cli


def fuzz_table() -> tuple[dict, dict]:
    from smallcover import catalog, charmap, instancefile
    from smallcover.gf2 import BitMatrix, BitVec

    fuzz_steps = WORKLOADS["fuzz_corpus"]().steps

    table: dict[str, dict[str, str]] = {}
    results: dict[str, dict] = {}
    for name, _ in FUZZ_PLAN:
        entry = catalog.get_entry(name)
        K, n = entry.complex, entry.n
        labels = K.labels
        first = K.facets[0]
        free = [j for j, v in enumerate(labels) if v not in first]
        table[name] = {}
        for combo in itertools.product(range(1, 1 << n), repeat=len(free)):
            cols = [0] * len(labels)
            for i, v in enumerate(first):
                cols[labels.index(v)] = 1 << i
            for j, c in zip(free, combo):
                cols[j] = c
            try:
                chi = charmap.CharacteristicMatrix(
                    K, BitMatrix.from_columns([BitVec(n, c) for c in cols]))
            except charmap.CharMapError:
                continue
            text = instancefile.emit_instance(f"{name}-0", K, chi)
            summary = fuzz_steps([text])[0]()
            key = canonical_key(text)[1]
            table[name][key] = digest(summary)
            results[digest(summary)] = summary
        print(f"{name}: {len(table[name])} instances up to GL({n}, 2)", file=sys.stderr)
    return table, results


def exact_counts(workload: str) -> dict:
    from tracer import EXACT_COUNTS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        w = WORKLOADS[workload]()
        inputs = w.setup(0)
        tracer.run_id = 1
        root = tracer.begin("bench.op")
        for step in w.steps(inputs):
            step()
        tracer.end(root)
        m = tracer.op_metrics(root, None, 0, w.instances)
    finally:
        tracer.uninstall()
    return {k: m[k] for k in EXACT_COUNTS}


def main() -> int:
    import_package()
    code, table1_stdout = run_cli(["table1"])
    if code != 0:
        raise SystemExit(f"table1 exited {code}")
    bier9 = WORKLOADS["bier9_analyze"]()
    code, report = bier9.steps(bier9.setup(0))[0]()
    if code != 0:
        raise SystemExit(f"analyze of bier9 exited {code}")
    fuzz, results = fuzz_table()
    reference = {
        "table1_stdout": table1_stdout,
        "bier9_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "counts": {w: exact_counts(w) for w in ("table1", "bier9_analyze")},
        "fuzz": fuzz,
        "fuzz_results": results,
    }
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

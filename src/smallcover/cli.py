"""Command-line interface.

Commands: analyze, table1, fuzz, catalog, shelling, bier.  Exit codes:
0 success; 1 InputError, for bad input or an input past a declared limit
(ring degree size, row-space size, Bier sphere facet count), and
ShellingBudgetExceeded, for the shelling search budget; 2 PropertyViolation
(fuzz disagreement, shelling verification failure) and a table1 mismatch;
3 InternalConsistencyError.
Each is raised where the fault is known; any other exception is a bug and
propagates.
Reports are deterministic; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from . import bier as bier_mod
from .catalog import TABLE1_MOD2, TABLE1_RATIONAL, catalog, get_entry
from .charmap import CharacteristicMatrix, classify_via_flips
from .cover import ConditionReport, RealToricSpace, evaluate_conditions
from .errors import InputError, InternalConsistencyError, PropertyViolation
from .gf2 import BitMatrix, bit_positions
from .instancefile import emit_instance, parse_instance
from .shelling import ShellingBudgetExceeded, find_shelling, verify_shelling


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def _report_dict(name: str, M: RealToricSpace, report: ConditionReport) -> dict:
    cls = report.classification
    out: dict = {
        "name": name,
        "n": M.n,
        "m": M.chi.m,
        "hypotheses": {
            "closed_pseudomanifold": report.hypotheses.closed_pseudomanifold,
            "strongly_connected": report.hypotheses.strongly_connected,
            "shelling_found": report.hypotheses.shelling_found,
        },
        "classification": {
            "label": cls.label.value,
            "is_simplex_pullback": cls.is_simplex_pullback,
            "coloring": {str(k): v for k, v in sorted(cls.coloring.items())}
            if cls.coloring
            else None,
        },
        "conditions": {str(k): v for k, v in sorted(report.conditions.items())},
        "verdict": report.verdict,
    }
    if report.betti is not None:
        out["betti"] = {
            "rational": list(report.betti.b),
            "mod2": list(report.betti.b_mod2),
            "mu": list(report.betti.mu),
        }
    if report.integral is not None:
        out["integral_cohomology"] = {
            str(q): {
                "rank": g.rank,
                "torsion": list(g.torsion),
                "pretty": str(g),
            }
            for q, g in sorted(report.integral.groups.items())
        }
    witnesses: dict = {}
    if report.torsion_witness:
        witnesses["odd_degree_torsion"] = {
            str(q): list(t) for q, t in sorted(report.torsion_witness.items())
        }
    if report.sq1_witness is not None:
        w = report.sq1_witness
        witnesses["sq1"] = {
            "facet": list(w.facet),
            "position": w.position,
            "s": w.s,
            "t": w.t,
            "class": M.ring.render(w.witness),
            "image": M.ring.render(w.image),
        }
    out["witnesses"] = witnesses
    return out


def _render_table(doc: dict) -> str:
    lines = [f"instance {doc['name']}  (n = {doc['n']}, m = {doc['m']})"]
    hyp = doc["hypotheses"]
    lines.append(
        "hypotheses: closed pseudomanifold = {closed_pseudomanifold}, "
        "strongly connected = {strongly_connected}, "
        "shelling found = {shelling_found}".format(**hyp)
    )
    cls = doc["classification"]
    lines.append(
        f"classification: {cls['label']} "
        f"(simplex pullback = {cls['is_simplex_pullback']})"
    )
    if "betti" in doc:
        lines.append("betti rational: " + " ".join(map(str, doc["betti"]["rational"])))
        lines.append("betti mod 2  : " + " ".join(map(str, doc["betti"]["mod2"])))
        lines.append("mu           : " + " ".join(map(str, doc["betti"]["mu"])))
    if "integral_cohomology" in doc:
        for q, g in doc["integral_cohomology"].items():
            lines.append(f"H^{q} = {g['pretty']}")
    for k, v in doc["conditions"].items():
        lines.append(f"condition ({k}): {'true' if v else 'false'}")
    lines.append(f"verdict: {doc['verdict']}")
    wit = doc.get("witnesses") or {}
    if "odd_degree_torsion" in wit:
        for q, t in wit["odd_degree_torsion"].items():
            lines.append(f"witness: degree-{q} torsion orders {t}")
    if "sq1" in wit:
        w = wit["sq1"]
        lines.append(
            f"witness: sq1({w['class']}) = {w['image']} != 0 "
            f"(facet {w['facet']}, position {w['position']})"
        )
    return "\n".join(lines) + "\n"


def _parse_conditions(text: str) -> tuple[int, ...] | None:
    if text == "all":
        return None
    try:
        vals = tuple(sorted({int(part) for part in text.split(",") if part}))
    except ValueError:
        raise InputError(f"bad condition list {text!r}; use 'all' or e.g. '1,3,7'")
    if not vals or any(v not in range(1, 8) for v in vals):
        raise InputError(f"conditions must lie in 1..7, got {text!r}")
    return vals


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    K, chi = parse_instance(_read_text(args.file))
    if chi is None:
        raise InputError("document has no lambda matrix; nothing to analyze")
    M = RealToricSpace(K, chi)
    report = evaluate_conditions(M, _parse_conditions(args.conditions))
    doc = _report_dict(Path(args.file).stem, M, report)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(_render_table(doc))
    print(f"timing: analyze took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def cmd_table1(args) -> int:
    t0 = time.perf_counter()
    _, sphere, chi = bier_mod.table1_instance()
    M = RealToricSpace(sphere, chi)
    from .cover import mod2_betti, rational_betti

    b = rational_betti(M)
    b2 = mod2_betti(M)
    print("k            : " + " ".join(f"{k:>3}" for k in range(9)))
    print("b^k          : " + " ".join(f"{v:>3}" for v in b))
    print("b^k mod 2    : " + " ".join(f"{v:>3}" for v in b2))
    print(f"timing: table1 took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if b == TABLE1_RATIONAL and b2 == TABLE1_MOD2:
        print("PASS: both rows match the expected values exactly")
        return 0
    print("FAIL: computed rows differ from the expected values")
    print("expected b^k : " + " ".join(f"{v:>3}" for v in TABLE1_RATIONAL))
    print("expected mod2: " + " ".join(f"{v:>3}" for v in TABLE1_MOD2))
    return 2


def sample_random_instance(
    entry_name: str, rng: random.Random
) -> tuple[CharacteristicMatrix, int]:
    """Rejection-sample a valid matrix over a catalog complex.

    Columns are uniform over all 2^n vectors; whole matrices failing facet
    independence are rejected, and only the accepted one is built and
    validated.  Returns (matrix, rejection count).

    A candidate is one draw rng.getrandbits(32 * m).  For n <= 32,
    getrandbits(n) is the top n bits of one 32-bit Mersenne Twister output,
    and getrandbits(32 * m) packs m such outputs, the first lowest; so column
    j is bits 32j + 32 - n up to 32j + 32 of the draw, and the draws,
    rejection counts and accepted matrices equal those of m calls of
    getrandbits(n).  Larger n raises InternalConsistencyError (the catalog's
    largest n is 8).  Facets are tested in K.facet_masks order, reading only
    the columns of the facet under test, with first_dependent_facet's
    reduced list basis; most candidates fail on the first facet.
    """
    entry = get_entry(entry_name)
    K = entry.complex
    n = entry.n
    m = K.vertex_count
    if n > 32:
        raise InternalConsistencyError(f"the sampler draws columns of at most 32 bits, not {n}")
    mask = (1 << n) - 1
    shifts = [32 * j + 32 - n for j in range(m)]
    facet_shifts = [[shifts[j] for j in bit_positions(fm)] for fm in K.facet_masks]
    rejections = 0
    while True:
        draw = rng.getrandbits(32 * m)
        for facet in facet_shifts:
            basis: list[int] = []
            for s in facet:
                v = draw >> s & mask
                for b in basis:
                    if v ^ b < v:
                        v ^= b
                if not v:
                    break
                basis.append(v)
            else:
                continue  # this facet's columns are independent
            break  # a dependent column rejects the candidate
        else:
            cols = [draw >> s & mask for s in shifts]
            return CharacteristicMatrix(K, BitMatrix.from_column_bits(n, cols)), rejections
        rejections += 1
        if rejections > 1_000_000:
            raise InputError(f"rejection sampling on {entry_name} exceeded 1e6 attempts")


def cmd_fuzz(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be a nonnegative count, got {args.samples}")
    get_entry(args.complex)  # an unknown name fails even when no sample is drawn
    t0 = time.perf_counter()
    rng = random.Random(args.seed)
    rejections = 0
    for k in range(args.samples):
        chi, rej = sample_random_instance(args.complex, rng)
        rejections += rej
        M = RealToricSpace(chi.complex, chi)
        report = evaluate_conditions(M)
        flips = classify_via_flips(chi)
        if flips.label != M.classification.label:
            print(f"sample {k}: classifier disagreement "
                  f"{flips.label.value} vs {M.classification.label.value}")
            sys.stdout.write(emit_instance(f"fuzz-{args.seed}-{k}", chi.complex, chi))
            raise PropertyViolation("flip classification disagrees with image condition")
        if report.hypotheses.all_hold() and not report.agree():
            print(f"sample {k}: seven-way disagreement: {report.conditions}")
            sys.stdout.write(emit_instance(f"fuzz-{args.seed}-{k}", chi.complex, chi))
            raise PropertyViolation("condition booleans disagree on a fuzz instance")
    print(
        f"fuzz {args.complex}: {args.samples}/{args.samples} agreements, "
        f"{args.samples} classifier cross-checks, {rejections} rejections, "
        f"seed {args.seed}"
    )
    print(f"timing: fuzz took {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name, entry in sorted(catalog().items()):
            tag = "no lambda" if entry.chi is None else f"n={entry.n}"
            print(f"{name:<18} [{tag:>9}]  {entry.description}")
        return 0
    entry = get_entry(args.name)
    sys.stdout.write(emit_instance(entry.name, entry.complex, entry.chi))
    return 0


def cmd_shelling(args) -> int:
    K, _ = parse_instance(_read_text(args.file))
    if args.order:
        text = _read_text(args.order)
        try:
            order_doc = json.loads(text)
        except ValueError as exc:  # a syntax error or a number past the digit limit
            raise InputError(f"order file is not readable JSON: {exc}") from exc
        if not isinstance(order_doc, list) or not all(
            isinstance(f, list) and all(type(v) is int for v in f) for f in order_doc
        ):
            raise InputError("order file must be a JSON list of facets, each a list of integers")
        shelling = verify_shelling(K, [tuple(f) for f in order_doc])
    else:
        shelling = find_shelling(K)
        if shelling is None:
            print(json.dumps({"found": False}, indent=2))
            return 0
    doc = {
        "found": True,
        "order": [list(K.labels_of(m)) for m in shelling.order],
        "restriction": [list(K.labels_of(m)) for m in shelling.restriction],
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_bier(args) -> int:
    K, _ = parse_instance(_read_text(args.file))
    sphere, chi = bier_mod.bier_instance(K)
    sys.stdout.write(emit_instance(f"bier-of-{Path(args.file).stem}", sphere, chi))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcover",
        description="Exact cohomological invariants of small covers / real toric "
        "spaces given by a simplicial complex and a GF(2) characteristic matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an instance file")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--conditions", default="all", help="'all' or comma list, e.g. 1,5,7")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table1", help="reproduce the flagship Betti table and verify it")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fuzz", help="random valid matrices over a catalog complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("catalog", help="list bundled instances or emit one")
    catalog_sub = p.add_subparsers(dest="action", required=True)
    pl = catalog_sub.add_parser("list")
    pl.set_defaults(func=cmd_catalog, action="list")
    pe = catalog_sub.add_parser("emit")
    pe.add_argument("name")
    pe.set_defaults(func=cmd_catalog, action="emit")

    p = sub.add_parser("shelling", help="verify a given facet order or search for one")
    p.add_argument("file")
    p.add_argument("--order", help="JSON file with an explicit facet order")
    p.set_defaults(func=cmd_shelling)

    p = sub.add_parser("bier", help="emit the Bier sphere instance of a complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_bier)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ShellingBudgetExceeded as exc:
        print(f"shelling search stopped: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

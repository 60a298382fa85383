"""Span recorder that times smallcover's layers from outside the package.

The tracer replaces public functions by timing wrappers at the name through
which the calling module looks them up (a module attribute or a class
attribute), so the package itself is unchanged.  Spans are kept in memory as
(name, start, end, parent, run id) and turned into per-layer metrics after
the timed part.  A hook whose target no longer exists is skipped and its
metrics read 0, so a refactor of the package cannot crash the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time

# (module path, owner attribute or None, attribute, span name).  An owner
# names a class inside the module; otherwise the attribute is a module global.
HOOKS = (
    ("smallcover.cli", None, "main", "cli.main"),
    ("smallcover.cli", None, "parse_instance", "instancefile.parse_instance"),
    ("smallcover.cli", None, "emit_instance", "instancefile.emit_instance"),
    ("smallcover.cli", None, "evaluate_conditions", "cover.evaluate_conditions"),
    ("smallcover.cli", None, "classify_via_flips", "charmap.classify_via_flips"),
    ("smallcover.cli", None, "sample_random_instance", "cli.sample_random_instance"),
    ("smallcover.instancefile", None, "parse_instance", "instancefile.parse_instance"),
    ("smallcover.instancefile", None, "emit_instance", "instancefile.emit_instance"),
    ("smallcover.bier", None, "table1_instance", "bier.table1_instance"),
    ("smallcover.cover", None, "evaluate_conditions", "cover.evaluate_conditions"),
    ("smallcover.cover", None, "rational_betti", "cover.rational_betti"),
    ("smallcover.cover", None, "mod2_betti", "cover.mod2_betti"),
    ("smallcover.cover", None, "classify_pullback", "charmap.classify_pullback"),
    ("smallcover.cover", None, "classify_via_flips", "charmap.classify_via_flips"),
    ("smallcover.cover", None, "omega_descriptors", "charmap.omega_descriptors"),
    ("smallcover.cover", None, "reduced_cohomology", "homology.reduced_cohomology"),
    ("smallcover.cover", None, "find_shelling", "shelling.find_shelling"),
    ("smallcover.charmap", None, "classify_via_flips", "charmap.classify_via_flips"),
    ("smallcover.charmap", None, "find_basis_change", "gf2.find_basis_change"),
    ("smallcover.charmap", "CharacteristicMatrix", "__post_init__", "charmap.validate"),
    ("smallcover.simplicial", "SimplicialComplex", "full_subcomplex",
     "simplicial.full_subcomplex"),
    ("smallcover.facering", None, "build_graded_basis", "facering.build_graded_basis"),
    ("smallcover.facering", None, "find_sq1_witness", "facering.find_sq1_witness"),
    ("smallcover.facering", "GradedRingBasis", "sq1_vanishes_on_degree", "facering.sq1"),
    # Degrees are built lazily behind the public ring methods; this private
    # method is the only boundary at which one degree's construction shows.
    ("smallcover.facering", "GradedRingBasis", "_ensure_degree", "facering.degree"),
)

# Layer metrics: name -> (unit, what it measures).  Times are summed over the
# spans of one timed operation; a span nested inside a span of the same name
# (recursion) is not counted twice.
LAYER_METRICS = {
    "simplicial.full_subcomplex_s": ("s", "time building the full subcomplexes K_W"),
    "simplicial.full_subcomplex_calls": ("count", "full subcomplexes built"),
    "simplicial.subcomplex_faces": ("count", "faces of the K_W, empty face included"),
    "homology.reduced_cohomology_s": ("s", "reduced cohomology of the K_W, "
                                      "including their lazy face enumeration"),
    "homology.reduced_cohomology_calls": ("count", "reduced cohomology calls"),
    "homology.max_call_ms": ("ms", "slowest reduced cohomology call"),
    "homology.coboundary_entries": ("count", "nonzero coboundary entries of the K_W"),
    "charmap.classify_pullback_s": ("s", "image-condition classifier"),
    "charmap.classify_via_flips_s": ("s", "ridge-flip classifier"),
    "charmap.omega_descriptors_s": ("s", "row-space descriptors"),
    "charmap.validate_s": ("s", "matrix validation, set-up and timed part"),
    "charmap.candidates": ("count", "matrices drawn by set-up rejection sampling"),
    "charmap.accept_ratio": ("ratio", "accepted share of the drawn matrices"),
    "gf2.find_basis_change_s": ("s", "basis changes solved for the classifiers"),
    "gf2.find_basis_change_calls": ("count", "basis changes solved"),
    "facering.init_s": ("s", "ring presentation set-up (build_graded_basis)"),
    "facering.degrees_s": ("s", "building every ring degree"),
    "facering.largest_degree_s": ("s", "self time of the degree with most monomials"),
    "facering.monomials": ("count", "monomials of the degrees built"),
    "facering.sq1_s": ("s", "Sq1 evaluation, degree building excluded"),
    "facering.witness_s": ("s", "Sq1 witness search"),
    "shelling.find_s": ("s", "shelling search"),
    "shelling.found_ratio": ("ratio", "share of shelling searches that found one"),
    "cover.evaluate_self_s": ("s", "self time of evaluate_conditions"),
    "instancefile.parse_s": ("s", "instance parsing and validation"),
    "instancefile.emit_s": ("s", "instance emission, set-up"),
    "bier.table1_instance_s": ("s", "Bier sphere build of the table1 instance"),
    "cli.self_s": ("s", "self time of cli.main: report assembly and rendering"),
    "trace.spans": ("count", "spans recorded in one timed operation"),
    "trace.wall_s": ("s", "traced wall time of the timed part"),
    "trace.untraced_wall_s": ("s", "untraced wall time in the same run"),
    "trace.overhead_s": ("s", "traced minus untraced wall time"),
    "trace.self_sum_s": ("s", "sum of all self times on the blocking path"),
}

# Modules whose self times tile the timed part; "bench" is the benchmark's
# own code between calls into the package.
MODULES = ("cli", "bier", "cover", "charmap", "gf2", "simplicial", "homology",
           "shelling", "facering", "instancefile", "bench")
for _m in MODULES:
    LAYER_METRICS[f"{_m}.self_s"] = ("s", f"self time of {_m} spans on the blocking path")

# What a hook keeps for the counts: its result or its arguments.
KEEP = {
    "simplicial.full_subcomplex": "result",
    "homology.reduced_cohomology": "args",
    "facering.build_graded_basis": "result",
    "facering.degree": "args",
    "shelling.find_shelling": "result",
}

# Counts that depend only on the inputs; they must repeat exactly for a seed.
EXACT_COUNTS = (
    "charmap.candidates",
    "charmap.accept_ratio",
    "simplicial.subcomplex_faces",
    "homology.coboundary_entries",
    "homology.reduced_cohomology_calls",
    "facering.monomials",
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.run_id = 0
        self.skipped: list[str] = []
        # Per span name in KEEP: (span index, result or arguments), for the
        # counts taken after the operation, when lazily built faces and
        # monomials already exist.
        self.kept: dict[str, list] = {name: [] for name in KEEP}

    # ----- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        kept = self.kept.get(name)
        keep_result = KEEP.get(name) == "result"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1, tracer.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf()
                stack.pop()
            if kept is not None:
                kept.append((idx, result if keep_result else args))
            return result
        return traced

    def install(self) -> None:
        for module_path, owner_name, attr, name in HOOKS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                self.skipped.append(f"{module_path}.{owner_name}")
                continue
            if owner_name:
                fn = owner.__dict__.get(attr)
            else:
                fn = getattr(owner, attr, None)
            if fn is None:
                self.skipped.append(f"{module_path}.{owner_name or ''}.{attr}")
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def forget(self) -> None:
        """Drop the objects kept for the counts of the last operation."""
        for values in self.kept.values():
            values.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3], "run": s[4]}))
                fh.write("\n")

    # ----- metrics --------------------------------------------------------

    def op_metrics(self, root: int, setup_root: int | None,
                   candidates: int, accepted: int) -> dict[str, float]:
        """Per-layer metrics of the timed operation under span ``root``.

        ``setup_root`` adds the set-up spans to the validation and emission
        times, which is where set-up spends them.
        """
        spans = self.spans
        run = spans[root][4]
        members = [i for i in range(root, len(spans)) if spans[i][4] == run
                   and _within(spans, i, root)]
        setup = []
        if setup_root is not None:
            setup = [i for i in range(setup_root, len(spans))
                     if spans[i][4] == spans[setup_root][4]
                     and _within(spans, i, setup_root)]
        child_time = {i: 0.0 for i in members}
        for i in members:
            p = spans[i][3]
            if i != root and p in child_time:
                child_time[p] += spans[i][2] - spans[i][1]

        def dur(i):
            return spans[i][2] - spans[i][1]

        def self_time(i):
            return dur(i) - child_time[i]

        def outermost(ids, name):
            out = []
            for i in ids:
                if spans[i][0] != name:
                    continue
                p = spans[i][3]
                nested = False
                while p >= 0:
                    if spans[p][0] == name:
                        nested = True
                        break
                    p = spans[p][3]
                if not nested:
                    out.append(i)
            return out

        def total(name, ids=members):
            return sum(dur(i) for i in outermost(ids, name))

        def calls(name):
            return sum(1 for i in members if spans[i][0] == name)

        def self_total(name):
            return sum(self_time(i) for i in members if spans[i][0] == name)

        def kept(name):
            return [(i, v) for i, v in self.kept[name] if spans[i][4] == run]

        m: dict[str, float] = {}
        m["simplicial.full_subcomplex_s"] = total("simplicial.full_subcomplex")
        m["simplicial.full_subcomplex_calls"] = calls("simplicial.full_subcomplex")
        m["simplicial.subcomplex_faces"] = sum(
            K.total_face_count() for _, K in kept("simplicial.full_subcomplex"))
        m["homology.reduced_cohomology_s"] = total("homology.reduced_cohomology")
        m["homology.reduced_cohomology_calls"] = calls("homology.reduced_cohomology")
        m["homology.max_call_ms"] = max(
            (dur(i) for i in members if spans[i][0] == "homology.reduced_cohomology"),
            default=0.0) * 1000
        m["homology.coboundary_entries"] = sum(
            _coboundary_entries(args[0]) for _, args in kept("homology.reduced_cohomology"))
        m["charmap.classify_pullback_s"] = total("charmap.classify_pullback")
        m["charmap.classify_via_flips_s"] = total("charmap.classify_via_flips")
        m["charmap.omega_descriptors_s"] = total("charmap.omega_descriptors")
        m["charmap.validate_s"] = (total("charmap.validate")
                                   + total("charmap.validate", setup))
        m["charmap.candidates"] = candidates
        m["charmap.accept_ratio"] = accepted / candidates if candidates else 0.0
        m["gf2.find_basis_change_s"] = total("gf2.find_basis_change")
        m["gf2.find_basis_change_calls"] = calls("gf2.find_basis_change")
        m["facering.init_s"] = total("facering.build_graded_basis")
        m["facering.degrees_s"] = total("facering.degree")
        m["facering.monomials"] = sum(
            len(ring.monomials(d)) for _, ring in kept("facering.build_graded_basis")
            for d in range(ring.n + 1))
        # Only the call that builds a degree has more than call overhead.
        degrees = [(len(ring.monomials(d)), self_time(i))
                   for i, (ring, d) in kept("facering.degree")]
        m["facering.largest_degree_s"] = max(degrees)[1] if degrees else 0.0
        m["facering.sq1_s"] = self_total("facering.sq1")
        m["facering.witness_s"] = total("facering.find_sq1_witness")
        shellings = [found for _, found in kept("shelling.find_shelling")]
        m["shelling.find_s"] = total("shelling.find_shelling")
        m["shelling.found_ratio"] = (
            sum(found is not None for found in shellings) / len(shellings)
            if shellings else 0.0)
        m["cover.evaluate_self_s"] = self_total("cover.evaluate_conditions")
        m["instancefile.parse_s"] = total("instancefile.parse_instance")
        m["instancefile.emit_s"] = (total("instancefile.emit_instance")
                                    + total("instancefile.emit_instance", setup))
        m["bier.table1_instance_s"] = total("bier.table1_instance")
        m["cli.self_s"] = self_total("cli.main")
        m["trace.spans"] = len(members)
        m["trace.wall_s"] = dur(root)
        self_by_module = {mod: 0.0 for mod in MODULES}
        for i in members:
            self_by_module[spans[i][0].split(".", 1)[0]] += self_time(i)
        for mod, value in self_by_module.items():
            m[f"{mod}.self_s"] = value
        m["trace.self_sum_s"] = sum(self_by_module.values())
        return m


def _within(spans, i, root) -> bool:
    while i >= 0:
        if i == root:
            return True
        i = spans[i][3]
    return False


def _coboundary_entries(K) -> int:
    """Nonzero entries of all coboundary matrices: a face with k vertices
    has k faces of one dimension less."""
    f = K.f_vector()  # f[0] counts the empty face
    return sum(f[k] * k for k in range(1, len(f)))

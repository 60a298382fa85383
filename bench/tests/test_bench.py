"""Self-tests of the benchmark: its correctness gate, corpus and tracer.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import sample  # noqa: E402
from tracer import EXACT_COUNTS, MODULES, Tracer  # noqa: E402

sample.import_package()

SMALL_PLAN = tuple((name, 3) for name, _ in sample.FUZZ_PLAN)


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    texts, candidates = sample.fuzz_corpus(11, SMALL_PLAN)
    return texts, candidates


def test_corpus_is_reproducible_from_its_seed(corpus):
    texts, candidates = corpus
    again = sample.fuzz_corpus(11, SMALL_PLAN)
    assert "".join(again[0]).encode() == "".join(texts).encode()
    assert again[1] == candidates
    other, _ = sample.fuzz_corpus(12, SMALL_PLAN)
    assert other != texts


def test_fuzz_outputs_match_the_reference(corpus, reference):
    texts, _ = corpus
    w = sample.FuzzCorpus()
    results = [step() for step in w.steps(texts)]
    assert w.failures(texts, results, reference) == 0


def test_perturbed_fuzz_reference_is_a_failure(corpus, reference):
    texts, _ = corpus
    w = sample.FuzzCorpus()
    results = [step() for step in w.steps(texts)]
    bad = copy.deepcopy(reference)
    for table in bad["fuzz"].values():
        for key in table:
            table[key] = "0" * 16
    assert w.failures(texts, results, bad) == len(texts)
    missing = copy.deepcopy(reference)
    missing["fuzz"]["gon6"] = {}
    assert w.failures(texts, results, missing) == 3
    results[0] = None
    assert w.failures(texts, results, reference) == 1


def test_table1_matches_and_perturbed_reference_fails(reference):
    w = sample.Table1()
    results, bounds, segments = sample.run_steps(w.steps(w.setup(0)), sample.CAL_REF_S,
                                                 interrupt=True)
    assert len(bounds) == 1 and len(segments) > 1
    raw = bounds[0][1] - bounds[0][0]
    in_segments = sum(end - start for start, end, _ in segments)
    assert in_segments < raw
    assert w.failures(None, results, reference) == 0
    bad = dict(reference, table1_stdout=reference["table1_stdout"].replace("31", "32"))
    assert w.failures(None, results, bad) == 1
    assert w.failures(None, [None], reference) == 1


def test_steps_are_scaled_by_the_kernel_around_their_segments():
    r = sample.CAL_REF_S
    segments = [(0.0, 1.0, 0.1), (1.5, 2.0, 0.1)]  # the kernel ran from 1.0 to 1.5
    bounds = [(0.0, 0.5), (0.5, 1.8), (1.8, 2.0)]
    times = sample.scaled_times(bounds, segments, 0.3)
    assert times == pytest.approx([5 * r, 6.5 * r, 1 * r])


def test_perturbed_bier9_digest_is_a_failure(reference):
    w = sample.Bier9Analyze()
    report = "{}\n"
    assert w.failures(None, [(0, report)], reference) == 1
    assert w.failures(None, [(1, report)], reference) == 1
    assert w.failures(None, [None], reference) == 1


def test_canonical_key_ignores_the_basis():
    from smallcover import instancefile
    from smallcover.charmap import CharacteristicMatrix
    from smallcover.gf2 import BitMatrix

    K, chi = instancefile.parse_instance(sample.fuzz_corpus(3, (("rp3", 1),))[0][0])
    g = BitMatrix.from_lists([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    moved = CharacteristicMatrix(K, g @ chi.matrix)
    assert moved.matrix != chi.matrix
    assert (sample.canonical_key(instancefile.emit_instance("rp3-0", K, chi))
            == sample.canonical_key(instancefile.emit_instance("rp3-1", K, moved)))


def test_traced_self_times_tile_the_operation(corpus):
    from smallcover import cli

    texts, candidates = corpus
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        w = sample.FuzzCorpus()
        tracer.run_id = 1
        root = tracer.begin("bench.op")
        sample.run_steps(w.steps(texts), sample.CAL_REF_S, interrupt=False)
        tracer.end(root)
        m = tracer.op_metrics(root, None, candidates, len(texts))
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert tracer.skipped == []
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert sum(m[f"{mod}.self_s"] for mod in MODULES) == pytest.approx(m["trace.wall_s"])
    assert m["homology.reduced_cohomology_calls"] > 0
    assert m["facering.monomials"] > 0
    assert m["shelling.found_ratio"] == 1.0
    assert set(EXACT_COUNTS) <= set(m)

"""Command-line interface: commands, formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from functools import partial

from smallcover import bier as bier_mod
from smallcover import charmap, cli, cover, facering, gf2, homology
from smallcover.catalog import CatalogEntry, catalog
from smallcover.cli import main, sample_random_instance
from smallcover.errors import InternalConsistencyError
from smallcover.facering import GradedRingBasis, RingClass
from smallcover.gf2 import BitMatrix
from smallcover.shelling import find_shelling
from smallcover.simplicial import SimplicialComplex, cross_polytope_boundary
import oracles
from oracles import circle_times_tetrahedron_boundary, sample_by_columns
from smallcover.instancefile import emit_instance, parse_instance


@pytest.fixture
def emit(tmp_path, capsys):
    def _emit(name):
        assert main(["catalog", "emit", name]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _emit


class TestCatalog:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "rp3" in out and "bier9" in out

    def test_emit_unknown(self, capsys):
        assert main(["catalog", "emit", "nope"]) == 1


class TestAnalyze:
    def test_table_format(self, emit, capsys):
        path = emit("deltas0")
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "not-simplex" in out
        assert "condition (1): false" in out
        assert "verdict: equivalent-false" in out

    def test_json_format_is_deterministic(self, emit, capsys):
        path = emit("rp3")
        assert main(["analyze", path, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", path, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["conditions"] == {str(k): True for k in range(1, 8)}
        assert doc["betti"]["rational"] == [1, 0, 0, 1]
        assert doc["integral_cohomology"]["2"]["torsion"] == [2]

    def test_condition_subset(self, emit, capsys):
        path = emit("rp3")
        assert main(["analyze", path, "--format", "json", "--conditions", "1,7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["conditions"]) == ["1", "7"]

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.json"]) == 1

    def test_directory_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_pullback_witness_failure_is_internal(self, emit, monkeypatch, capsys):
        # no basis among the distinct columns of a valid matrix is a bug
        monkeypatch.setattr(charmap, "echelon_insert", lambda rows, v: False)
        assert main(["analyze", emit("rp3")]) == 3
        assert "internal consistency error" in capsys.readouterr().err

    def test_lambda_free_document_rejected(self, emit, capsys):
        path = emit("rp2_6v")
        assert main(["analyze", path]) == 1

    def test_bad_condition_list(self, emit):
        path = emit("rp3")
        assert main(["analyze", path, "--conditions", "9"]) == 1

    def test_rank_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        doc = {
            "name": "bad-rank",
            "n": 3,
            "vertices": [1, 2, 3],
            "facets": [[1, 2], [1, 3], [2, 3]],
            "lambda": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: matrix rank 3")


    def test_descending_labels_match_ascending(self, emit, tmp_path, capsys):
        """The octahedron declared as [6, 5, 4, 3, 2, 1], each label keeping
        its linear-model column, reports what the ascending file reports."""
        path = emit("cross3")
        doc = json.loads(open(path).read())
        order = [6, 5, 4, 3, 2, 1]
        cols = [doc["vertices"].index(v) for v in order]
        doc["vertices"] = order
        doc["lambda"] = [[row[j] for j in cols] for row in doc["lambda"]]
        (tmp_path / "descending").mkdir()
        descending = tmp_path / "descending" / "cross3.json"
        descending.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", path]) == 0
        ascending_out = capsys.readouterr().out
        assert main(["analyze", str(descending)]) == 0
        out = capsys.readouterr().out
        assert out == ascending_out
        assert "classification: linear-model" in out
        assert "verdict: equivalent-true" in out


class TestModuleEntryPoint:
    @pytest.mark.parametrize("name", ["rp3", "deltas0"])
    def test_python_dash_m_matches_main(self, name, emit, capsys):
        path = emit(name)
        code = main(["analyze", path, "--format", "json"])
        expected = capsys.readouterr().out
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "smallcover", "analyze", path, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, expected)


class TestRingExitCodes:
    @pytest.fixture
    def rp2_with_lambda(self, tmp_path):
        # a closed pseudomanifold that is no sphere: h = (1, 3, 6, 0) has no
        # one-dimensional top degree, so the ring's dimension law must fail
        chi, _ = sample_random_instance("rp2_6v", random.Random(0))
        assert chi.complex.h_vector() == (1, 3, 6, 0)
        path = tmp_path / "rp2-6v-lambda.json"
        text = emit_instance("rp2-6v-lambda", chi.complex, chi)
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("conditions", ["all", "5"])
    def test_ring_conditions_are_internal_errors(
        self, rp2_with_lambda, conditions, capsys
    ):
        args = ["analyze", rp2_with_lambda, "--conditions", conditions]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "internal consistency error" in err
        assert "degree 3 dimension 1 does not match h_3 = 0" in err

    def test_ring_free_conditions_succeed(self, rp2_with_lambda, capsys):
        assert main(["analyze", rp2_with_lambda, "--conditions", "1,2"]) == 0
        assert "verdict: hypotheses-not-verified" in capsys.readouterr().out

    def test_mixed_degree_sum_is_internal_error(self, emit, monkeypatch, capsys):
        # a bug that adds classes of different degrees must not read as bad input
        def bad_sq1(self, x):
            return self.add(x, RingClass(x.degree + 1, 0))

        monkeypatch.setattr(GradedRingBasis, "sq1", bad_sq1)
        assert main(["analyze", emit("rp3")]) == 3
        assert "internal consistency error" in capsys.readouterr().err

    def test_broken_group_invariant_is_internal_error(self, emit, monkeypatch, capsys):
        # a cohomology group with a torsion order that is no prime power is a
        # bug in the homology code, not an input error
        monkeypatch.setattr(homology, "_is_prime_power", lambda d: False)
        assert main(["analyze", emit("rp3")]) == 3
        err = capsys.readouterr().err
        assert "internal consistency error" in err
        assert "is not a prime power" in err


# sha256 of `analyze --format json` stdout, recorded before condition 4
# reused condition 5's degree-2 answer
SQ1_REPORT_PINS = {
    "bier9": "16080d387a4d6d08b709badee23cb6d62ad23c2ab0f5b43915ca5fd3274f8e16",
    "cross4": "7b1347757d5709c7bc737fd6603edf27a3c0a44bde260b7548be57f2110cb479",
    "rp3": "aa1569540b3cdf9d51476817dcd56f1ae916428dfa4911636ff60f2ed3bd5687",
}


@pytest.mark.parametrize("name", sorted(SQ1_REPORT_PINS))
def test_each_even_degree_is_decided_once(name, emit, monkeypatch, capsys):
    decided = []
    decide = GradedRingBasis.sq1_vanishes_on_degree

    def spy(ring, d, certified=False):
        decided.append(d)
        return decide(ring, d, certified)

    monkeypatch.setattr(GradedRingBasis, "sq1_vanishes_on_degree", spy)
    path = emit(name)
    assert main(["analyze", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    n = json.loads(out)["n"]
    # every condition holds on these three, so condition 4 reads every even degree
    assert sorted(decided) == list(range(0, n + 1, 2))
    assert hashlib.sha256(out.encode()).hexdigest() == SQ1_REPORT_PINS[name]


class TestTable1:
    def test_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "1  10  40  81 101  81  40  10   1" in out


class TestFuzz:
    def test_deterministic_summary(self, capsys):
        assert main(["fuzz", "--complex", "gon6", "--samples", "8", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--complex", "gon6", "--samples", "8", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert "8/8 agreements" in first

    def test_summary_is_pinned(self, capsys):
        assert main(["fuzz", "--complex", "gon6", "--samples", "8", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "fuzz gon6: 8/8 agreements, 8 classifier cross-checks, "
            "545 rejections, seed 5\n"
        )

    def test_unknown_complex(self, capsys):
        assert main(["fuzz", "--complex", "nope", "--samples", "1", "--seed", "0"]) == 1

    def test_negative_sample_count_is_an_input_error(self, capsys):
        assert main(["fuzz", "--complex", "rp2", "--samples", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --samples must be a nonnegative count, got -3\n"

    def test_zero_samples_summary(self, capsys):
        assert main(["fuzz", "--complex", "gon6", "--samples", "0", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "fuzz gon6: 0/0 agreements, 0 classifier cross-checks, 0 rejections, seed 5\n"
        )

    def test_unknown_complex_with_zero_samples(self, capsys):
        assert main(["fuzz", "--complex", "nope", "--samples", "0", "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: unknown catalog name 'nope'; available: ")


# sha256 of repr([(row_bits, rejections), ...]) for the first 20 draws of
# sample_random_instance(name, random.Random(f"pin/{name}")), recorded before
# the sampler checked raw column ints; the draws, the rejection counts and
# the accepted matrices must not change.
SAMPLER_PINS = {
    "cross3": "982071150112bc591977af9dc7847c39be80fa85de26eefa23a2d0fc04095074",
    "cross4": "36b94bb463cc3a5337803d83a6a3ad43b6e024b9655dbb8995a1356133bd1f9b",
    "gon6": "122c9d0bd4fdd91983b4b732fe28f0d3b7147bbdb6505c9408d3363dfad514a4",
    "gon9": "0d2d44f8f6bfc3fccfecd2dc490d133b2a648220b8eb1924ff24cacdcc2a3cdb",
    "rp3": "9abe54da812ddc82379410f40dc53d4078c6a16c304184e094fd7bc56e1d14ec",
    "rp4": "fa4ef8af677cd13dee71ac408329cc4fc2b3454f5bf451dfba9352e439539895",
}


class TestSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_PINS))
    def test_draws_are_pinned(self, name):
        rng = random.Random(f"pin/{name}")
        draws = []
        for _ in range(20):
            chi, rejections = sample_random_instance(name, rng)
            draws.append((chi.matrix.row_bits, rejections))
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == SAMPLER_PINS[name]

    def test_rejection_cap_is_an_input_error(self, monkeypatch, capsys):
        # all-zero columns fail the first facet, so the real loop hits the cap
        class Zeros(random.Random):
            def getrandbits(self, k):
                return 0

        monkeypatch.setattr(cli.random, "Random", Zeros)
        assert main(["fuzz", "--complex", "rp1", "--samples", "1", "--seed", "0"]) == 1
        assert "exceeded 1e6 attempts" in capsys.readouterr().err

    # bier9 is left out: its sampler reaches the 10^6-rejection cap
    @pytest.mark.parametrize("name", sorted(set(catalog()) - {"bier9"}))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_column_sampler(self, name, seed):
        # cross6 accepts about one candidate in 50,000
        draws = 1 if name.startswith("cross6") else 5
        packed, single = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            chi, rejections = sample_random_instance(name, packed)
            want, want_rejections = sample_by_columns(name, single)
            assert (chi.matrix.row_bits, rejections) == (want.matrix.row_bits, want_rejections)
        assert packed.getstate() == single.getstate()

    def test_one_draw_packs_the_column_draws(self):
        for n in range(1, 33):
            for m in (1, 2, 9):
                packed, single = random.Random(f"{n}/{m}"), random.Random(f"{n}/{m}")
                draw = packed.getrandbits(32 * m)
                cols = [single.getrandbits(n) for _ in range(m)]
                assert [draw >> (32 * j + 32 - n) & (1 << n) - 1 for j in range(m)] == cols
                assert packed.getstate() == single.getstate()

    @staticmethod
    def serve_one_facet(monkeypatch, n):
        """Serve the sampler and its oracle a catalog entry of one facet on n
        labels with no matrix, whose n is then the facet size."""
        labels = range(1, n + 1)
        entry = CatalogEntry("simplex", "", SimplicialComplex(labels, [labels]), None)
        monkeypatch.setattr(cli, "get_entry", lambda name: entry)
        monkeypatch.setattr(oracles, "get_entry", lambda name: entry)

    def test_32_bit_columns_match_the_column_sampler(self, monkeypatch):
        self.serve_one_facet(monkeypatch, 32)
        packed, single = random.Random(32), random.Random(32)
        chi, rejections = sample_random_instance("simplex", packed)
        want, want_rejections = sample_by_columns("simplex", single)
        assert (chi.matrix.row_bits, rejections) == (want.matrix.row_bits, want_rejections)

    def test_columns_of_more_than_32_bits_are_refused(self, monkeypatch):
        self.serve_one_facet(monkeypatch, 33)
        rng = random.Random(33)
        state = rng.getstate()
        with pytest.raises(InternalConsistencyError, match="at most 32 bits"):
            sample_random_instance("simplex", rng)
        assert rng.getstate() == state


class TestLimits:
    def test_ring_size_checked_before_any_work(self, emit, monkeypatch, capsys):
        # cross4 builds up to degree 3: C(4 + 3 - 1, 3) = 20 monomials
        def boom(*args):
            raise AssertionError("homology or ring work ran before the size check")

        monkeypatch.setattr(facering, "MAX_DEGREE_MONOMIALS", 19)
        monkeypatch.setattr(cover, "reduced_cohomology", boom)
        monkeypatch.setattr(facering, "build_graded_basis", boom)
        assert main(["analyze", emit("cross4")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "input error: ring degree 3 has 20 monomials, over the limit of 19 for one degree"
        )

    def test_ring_size_checked_before_the_shelling_search(self, tmp_path, monkeypatch, capsys):
        # The 14-cross-polytope with linear-model columns: 16,384 facets, 14
        # variables.  Even on the certified side Sq1 on degree 6 needs ring
        # degree 7, C(14 + 7 - 1, 7) = 77,520 monomials.
        def no_search(K):
            raise AssertionError("the shelling search ran before the ring-size check")

        monkeypatch.setattr(cover, "find_shelling", no_search)
        K = cross_polytope_boundary(14)
        chi = charmap.CharacteristicMatrix(
            K, BitMatrix.from_column_bits(14, [1 << i for i in range(14)] * 2)
        )
        path = tmp_path / "cross14.json"
        path.write_text(emit_instance("cross14", K, chi), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: ring degree 7 has 77520 monomials, over the limit of "
            "25000 for one degree\n"
        )

    def test_row_space_guard_checked_before_any_enumeration(self, tmp_path, monkeypatch, capsys):
        def boom(*args):
            raise AssertionError("faces were enumerated before the row-space guard")

        monkeypatch.setattr(SimplicialComplex, "_faces_by_dim", boom)
        monkeypatch.setattr(SimplicialComplex, "faces_within", boom)
        labels = list(range(1, 21))
        doc = {
            "name": "simplex20",
            "n": 20,
            "vertices": labels,
            "facets": [labels],
            "lambda": [[int(i == j) for j in range(20)] for i in range(20)],
        }
        path = tmp_path / "simplex20.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: row count 20 exceeds enumeration guard 16\n"

    @pytest.mark.parametrize("conditions, code", [("1,4,5", 0), ("3", 1), ("6", 1), ("7", 1)])
    def test_row_space_guard_only_for_row_space_conditions(
        self, emit, monkeypatch, capsys, conditions, code
    ):
        monkeypatch.setattr(cover, "ROW_SPACE_GUARD", 2)
        assert main(["analyze", emit("cross3"), "--conditions", conditions]) == code
        if code:
            assert capsys.readouterr().err == "input error: row count 3 exceeds enumeration guard 2\n"

    def test_ring_size_at_the_limit_runs(self, emit, monkeypatch, capsys):
        monkeypatch.setattr(facering, "MAX_DEGREE_MONOMIALS", 20)
        assert main(["analyze", emit("cross4")]) == 0

    def test_ring_free_conditions_skip_the_size_check(self, emit, monkeypatch):
        monkeypatch.setattr(facering, "MAX_DEGREE_MONOMIALS", 0)
        assert main(["analyze", emit("cross4"), "--conditions", "1,2,3,6,7"]) == 0

    def test_flagship_fits_the_limit(self):
        # bier9's degree 8 must stay buildable directly for the ring pins
        assert facering.MAX_DEGREE_MONOMIALS >= 24310

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_exhausted_budget_is_reported(self, emit, monkeypatch, capsys, fmt):
        monkeypatch.setattr(cover, "find_shelling", partial(find_shelling, budget=2))
        assert main(["analyze", emit("rp3"), "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["hypotheses"]["shelling_found"] == "budget-exceeded"
            assert doc["verdict"] == "hypotheses-not-verified"
        else:
            assert "shelling found = budget-exceeded" in out
            assert "verdict: hypotheses-not-verified" in out


class TestShelling:
    def test_search(self, emit, capsys):
        path = emit("cross3")
        assert main(["shelling", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["found"] is True
        assert len(doc["order"]) == 8
        assert doc["restriction"][0] == []

    def test_verify_good_order(self, emit, tmp_path, capsys):
        path = emit("rp2")
        order = tmp_path / "order.json"
        order.write_text(json.dumps([[1, 2], [1, 3], [2, 3]]), encoding="utf-8")
        assert main(["shelling", path, "--order", str(order)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["restriction"] == [[], [3], [2, 3]]

    def test_verify_bad_order_exit_two(self, emit, tmp_path, capsys):
        path = emit("cross3")
        order = tmp_path / "order.json"
        facets = json.loads(open(path).read())["facets"]
        bad = [facets[0], [4, 5, 6]] + [
            f for f in facets if f not in (facets[0], [4, 5, 6])
        ]
        order.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["shelling", path, "--order", str(order)]) == 2
        assert capsys.readouterr().err == (
            "property violation: shelling condition fails at index 2\n"
        )

    @pytest.mark.parametrize("order", [[1, 2], [[1, 2], [1, "3"]], {"a": 1}])
    def test_malformed_order_is_input_error(self, emit, tmp_path, capsys, order):
        path = emit("rp2")
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(order), encoding="utf-8")
        assert main(["shelling", path, "--order", str(order_path)]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_not_found_reports_false(self, tmp_path, capsys):
        doc = {
            "name": "two-triangles",
            "n": 3,
            "vertices": [1, 2, 3, 4, 5, 6],
            "facets": [[1, 2, 3], [4, 5, 6]],
            "lambda": None,
        }
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["shelling", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"found": False}

    def test_budget_exceeded_exits_one(self, tmp_path, capsys):
        chi = circle_times_tetrahedron_boundary()
        path = tmp_path / "staircase.json"
        path.write_text(emit_instance("staircase", chi.complex, None), encoding="utf-8")
        assert main(["shelling", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "shelling search stopped: no shelling found within the search budget "
            "of 20000 facet placements (36 facets); the complex may still be shellable\n"
        )


class TestBier:
    def test_emits_valid_instance(self, tmp_path, capsys):
        doc = {
            "name": "circle",
            "n": 2,
            "vertices": [1, 2, 3],
            "facets": [[1, 2], [1, 3], [2, 3]],
            "lambda": None,
        }
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bier", str(path)]) == 0
        text = capsys.readouterr().out
        K, chi = parse_instance(text)
        assert K.dim == 1
        assert chi is not None

    def test_full_simplex_rejected(self, tmp_path, capsys):
        doc = {
            "name": "full",
            "n": 2,
            "vertices": [1, 2],
            "facets": [[1, 2]],
            "lambda": None,
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bier", str(path)]) == 1
        assert capsys.readouterr().err == "input error: the full simplex has no Bier sphere\n"

    def test_catalog_bier9_is_within_the_facet_limit(self, emit):
        K, _ = parse_instance(Path(emit("bier9")).read_text(encoding="utf-8"))
        assert bier_mod.bier_facet_count(K) == 66_342 <= bier_mod.BIER_FACET_LIMIT

    def test_facet_limit(self, tmp_path, capsys):
        # l isolated points have l(l - 1) Bier facets; take the least l past
        # the limit, which is rejected before the sphere is built
        ell = 2
        while ell * (ell - 1) <= bier_mod.BIER_FACET_LIMIT:
            ell += 1
        doc = {
            "name": "points",
            "n": 1,
            "vertices": list(range(1, ell + 1)),
            "facets": [[v] for v in range(1, ell + 1)],
            "lambda": None,
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bier", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: the Bier sphere would have {ell * (ell - 1)} facets, "
            f"over the limit of {bier_mod.BIER_FACET_LIMIT}\n"
        )


NON_PURE = {
    "name": "non-pure",
    "n": 3,
    "vertices": [1, 2, 3, 4],
    "facets": [[1, 2, 3], [1, 4]],
    "lambda": None,
}
TRIANGLE = {
    "name": "triangle",
    "n": 2,
    "vertices": [1, 2, 3],
    "facets": [[1, 2], [1, 3], [2, 3]],
    "lambda": None,
}


class TestExitCodes:
    """Input errors exit 1 because they are raised as InputError where they
    are found, not because they are some ValueError; internal faults exit 3
    wherever they are raised."""

    def write(self, tmp_path, doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_non_pure_analyze_document(self, tmp_path, capsys):
        doc = {
            "name": "non-pure",
            "n": 3,
            "vertices": [1, 2, 3, 4],
            "facets": [[1, 2, 3], [1, 4]],
            "lambda": [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
        }
        assert main(["analyze", self.write(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == (
            "input error: real toric spaces here require a pure complex\n"
        )

    @pytest.mark.parametrize(
        "argv, doc, order, message",
        [
            (["shelling"], NON_PURE, None, "shellings are defined for pure complexes"),
            (["shelling"], NON_PURE, [[1, 2, 3], [1, 4]],
             "shellings are defined for pure complexes"),
            (["shelling"], TRIANGLE, [[1, 2], [1, 3], [2, 9]], "unknown vertex label 9"),
            (["analyze"], {**TRIANGLE, "lambda": [[1, 1, 0], [0, 0, 1]]}, None,
             "columns on facet (1, 2) are linearly dependent"),
            (["analyze"], {**TRIANGLE, "vertices": [0, 1, 2, 3]}, None,
             "field 'vertices' must be a list of positive integers"),
            (["analyze"], {**TRIANGLE, "facets": [[0, 1], [1, 3], [2, 3]]}, None,
             "undeclared vertex label 0 in generator (0, 1)"),
        ],
        ids=["non-pure-search", "non-pure-order", "unknown-order-label",
             "dependent-columns", "label-0-declared", "label-0-in-a-facet"],
    )
    def test_reachable_input_errors(self, tmp_path, capsys, argv, doc, order, message):
        argv = argv + [self.write(tmp_path, doc)]
        if order is not None:
            argv += ["--order", self.write(tmp_path, order, "order.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_singular_facet_basis_is_internal(self, emit, monkeypatch, capsys):
        # the real singular-matrix error of gf2.invert, raised where a facet
        # basis is inverted: an internal fault, not bad input
        def singular(b):
            return gf2.invert(BitMatrix(b.rows, b.cols, (0,) * b.rows))

        monkeypatch.setattr(charmap, "invert", singular)
        assert main(["analyze", emit("deltas0")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal consistency error: matrix is singular\n"

    def test_broken_pivot_column_is_internal(self, emit, monkeypatch, capsys):
        # every matrix starts with a cached basis for the neighbour G of its
        # first facet F across F's lowest vertex v, with G's entry for v
        # cleared of the vertex p that F lacks; the ring's request for F
        # pivots from G and must stop there
        path = emit("deltas0")
        real = charmap.CharacteristicMatrix.__post_init__

        def seeded(chi):
            real(chi)
            K = chi.complex
            fm = K.facet_masks[0]
            v = fm & -fm
            p = K.flip_bit(fm, v)
            coords = [0] * K.vertex_count
            coords[v.bit_length() - 1] = fm ^ v
            chi._facet_coordinates[fm ^ v | p] = tuple(coords)

        monkeypatch.setattr(charmap.CharacteristicMatrix, "__post_init__", seeded)
        assert main(["analyze", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal consistency error: pivot column of vertex")

    def test_bier9_inverts_one_facet_basis(self, emit, monkeypatch, capsys):
        # bier9's flips are all decided by the two column tests (lambda(p)
        # is lambda(v) or the facet's sum), so the flip scan solves no
        # facet, and the one inverted basis is the ring's first facet's
        calls = []

        def counted(b):
            calls.append(b)
            return gf2.invert(b)

        monkeypatch.setattr(charmap, "invert", counted)
        assert main(["analyze", emit("bier9")]) == 0
        assert len(calls) == 1

    def test_unshellable_bookkeeping_failure_is_an_input_error(self, tmp_path, capsys):
        # two disjoint edges: the h-vector (1, 2, -1) is not the mod-2 Betti
        # vector, which only a shellable complex guarantees
        doc = {
            "name": "two-edges",
            "n": 2,
            "vertices": [1, 2, 3, 4],
            "facets": [[1, 4], [2, 3]],
            "lambda": [[1, 1, 1, 0], [0, 1, 0, 1]],
        }
        assert main(["analyze", self.write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: even-torsion bookkeeping fails at degree 2: the mod-2 "
            "Betti numbers are the h-vector only for a shellable complex, and no "
            "shelling of K was found\n"
        )

    def test_shellable_bookkeeping_failure_stays_internal(self, emit, monkeypatch, capsys):
        # cross3 shells, so a wrong mod-2 Betti vector is a fault of the code
        monkeypatch.setattr(cover, "mod2_betti", lambda M: (1, 0, 0, 1))
        assert main(["analyze", emit("cross3")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal consistency error: negative even-torsion count at degree 2\n"
        )

    def test_row_space_guard_fires_before_any_cohomology(self, tmp_path, monkeypatch, capsys):
        def boom(*args):
            raise AssertionError("cohomology ran before the row-space guard")

        monkeypatch.setattr(cover, "reduced_cohomology", boom)
        labels = list(range(1, 18))
        doc = {
            "name": "simplex17",
            "n": 17,
            "vertices": labels,
            "facets": [labels],
            "lambda": [[int(i == j) for j in range(17)] for i in range(17)],
        }
        assert main(["analyze", self.write(tmp_path, doc), "--conditions", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: row count 17 exceeds enumeration guard 16\n"

    @pytest.mark.parametrize("facets", [[], [[1]]])
    def test_one_label_bier_document(self, tmp_path, capsys, facets):
        doc = {"name": "one", "n": 1, "vertices": [1], "facets": facets, "lambda": None}
        assert main(["bier", self.write(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_order_file_that_is_not_json(self, emit, tmp_path, capsys):
        order = tmp_path / "order.json"
        order.write_text("[[1, 2], [1, 3]", encoding="utf-8")
        assert main(["shelling", emit("rp2"), "--order", str(order)]) == 1
        assert capsys.readouterr().err.startswith("input error: order file is not")

    def test_document_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"name": "huge", "n": ' + "9" * 5000 + "}", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: unreadable number")

    def test_bare_value_error_is_not_an_input_error(self, emit, monkeypatch, capsys):
        # a ValueError inside the computation is a bug and must show as one
        def broken(M, conditions=None):
            raise ValueError("bug inside the computation")

        monkeypatch.setattr(cli, "evaluate_conditions", broken)
        path = emit("rp3")
        with pytest.raises(ValueError, match="bug inside the computation"):
            main(["analyze", path])
        assert "input error" not in capsys.readouterr().err

"""Exact GF(2) linear algebra: spec examples and algebraic properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply, enumerate_gl
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.gf2 import (
    BitMatrix,
    bit_positions,
    echelon_insert,
    find_basis_change,
    invert,
    rank,
    reduce_echelon,
    row_space,
)


class TestFromLists:
    def test_low_index_is_low_bit(self):
        assert BitMatrix.from_lists([[1, 0, 0]]).row_bits == (1,)
        assert BitMatrix.from_lists([[0, 0, 1]]).row_bits == (4,)
        m = BitMatrix.from_lists([[1, 0, 1, 1], [0, 1, 0, 0]])
        assert (m.rows, m.cols, m.row_bits) == (2, 4, (0b1101, 0b0010))

    def test_empty(self):
        assert BitMatrix.from_lists([]) == BitMatrix(0, 0, ())

    def test_entry_not_zero_or_one(self):
        with pytest.raises(InternalConsistencyError, match="not 0 or 1"):
            BitMatrix.from_lists([[1, 0], [2, 0]])

    def test_ragged_rows(self):
        with pytest.raises(InternalConsistencyError, match="unequal lengths"):
            BitMatrix.from_lists([[1, 0], [1, 0, 0]])


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix(3, 3, (1, 2, 4))) == 3

    def test_two_independent_rows(self):
        assert rank(BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])) == 2

    def test_zero_matrix(self):
        assert rank(BitMatrix(2, 3, (0, 0))) == 0

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(20240)
        for _ in range(60):
            rows = rng.randrange(1, 13)
            cols = rng.randrange(1, 13)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            assert rank(m) == rank(BitMatrix(cols, rows, tuple(m.column_bits())))


class TestRowSpace:
    def test_two_row_example(self):
        # element k is the XOR of the rows at the set bits of k
        elems = row_space(BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]]))
        assert elems == [0b000, 0b101, 0b110, 0b011]

    def test_zero_row(self):
        assert row_space(BitMatrix(1, 3, (0,))) == [0]

    def test_identity_gives_all_vectors(self):
        elems = row_space(BitMatrix(2, 2, (1, 2)))
        assert sorted(elems) == [0, 1, 2, 3]

    def test_size_is_two_to_rank_and_closed(self):
        rng = random.Random(99)
        for _ in range(25):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 8)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            elems = row_space(m)
            values = set(elems)
            assert len(elems) == len(values) == 1 << rank(m)
            assert all(a ^ b in values for a in values for b in values)

    def test_guard(self):
        with pytest.raises(InputError):
            row_space(BitMatrix(31, 2, (0,) * 31))


def images(g: BitMatrix, vectors) -> list[int]:
    """g @ v for each int column vector v, one row parity at a time."""
    return [apply(g, v) for v in vectors]


class TestBasisChange:
    def test_standard_basis_gives_identity(self):
        g = find_basis_change([0b01, 0b10], 2)
        assert g == BitMatrix(2, 2, (1, 2))

    def test_forced_two_dim(self):
        v1, v2 = 0b01, 0b11
        g = find_basis_change([v1, v2], 2)
        assert images(g, [v1, v2]) == [0b01, 0b10]

    def test_three_dim_example(self):
        vs = [0b111, 0b010, 0b100]
        g = find_basis_change(vs, 3)
        assert g.row_bits == (0b001, 0b011, 0b101)
        assert images(g, vs) == [1 << i for i in range(3)]

    def test_contract_on_random_bases(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 7)
            while True:
                m = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
                if rank(m) == n:
                    break
            vs = m.column_bits()
            g = find_basis_change(vs, n)
            assert rank(g) == n
            assert images(g, vs) == [1 << i for i in range(n)]

    def test_dependent_input_rejected(self):
        with pytest.raises(InternalConsistencyError, match="linearly dependent"):
            find_basis_change([0b01, 0b01], 2)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(InternalConsistencyError, match="out of range"):
            find_basis_change([0b001, 0b100], 2)
        with pytest.raises(InternalConsistencyError, match="expected 2 vectors"):
            find_basis_change([0b01], 2)


class TestMatrixOps:
    def test_invert_round_trip(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randrange(1, 8)
            while True:
                m = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
                if rank(m) == n:
                    break
            assert m @ invert(m) == BitMatrix(n, n, tuple(1 << i for i in range(n)))

    def test_invert_singular(self):
        with pytest.raises(InternalConsistencyError):
            invert(BitMatrix(2, 2, (0, 0)))

    def test_matmul_vs_apply(self):
        a = BitMatrix.from_lists([[1, 1, 0], [0, 1, 1]])
        b = BitMatrix.from_lists([[1, 0], [1, 1], [0, 1]])
        prod = a @ b
        assert prod.column_bits() == images(a, b.column_bits())
        assert prod == BitMatrix.from_lists([[0, 1], [1, 0]])


class TestColumnBits:
    def test_columns_in_one_pass(self):
        rng = random.Random(21)
        for _ in range(50):
            rows, cols = rng.randrange(0, 7), rng.randrange(0, 9)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            column = [
                sum((r >> j & 1) << i for i, r in enumerate(m.row_bits))
                for j in range(cols)
            ]
            assert m.column_bits() == column
            assert BitMatrix.from_column_bits(rows, m.column_bits()) == m

    def test_from_column_bits_matches_coordinates(self):
        m = BitMatrix.from_column_bits(3, [0b101, 0b100, 0b011, 0b000])
        assert m == BitMatrix.from_lists([[1, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 0]])

    def test_column_out_of_range(self):
        with pytest.raises(InternalConsistencyError):
            BitMatrix.from_column_bits(2, [0b01, 0b100])

    def test_bit_positions(self):
        assert bit_positions(0) == []
        assert bit_positions(0b1011_0000_0001) == [0, 8, 9, 11]
        v = (1 << 200) | 1
        assert bit_positions(v) == [0, 200]


class TestEnumerateGL:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 168), (4, 20160)])
    def test_group_order(self, n, count):
        seen = list(enumerate_gl(n))
        assert len(seen) == count
        assert all(rank(g) == n for g in seen[:50])


# Deterministic and bounded: the same examples on every run.
ORACLE = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def bit_matrices(draw, square=False):
    rows = draw(st.integers(1 if square else 0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    entries = st.integers(0, (1 << cols) - 1)
    bits = draw(st.lists(entries, min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(bits))


def span(vectors) -> set[int]:
    """Every XOR of a subset of the vectors, by brute force."""
    out = {0}
    for v in vectors:
        out |= {s ^ v for s in out}
    return out


def low_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


class TestEchelonOracle:
    """rank, row_space and the reduced echelon form, all built on the lazy
    echelon_insert (each row keyed by its lowest bit, not back-substituted),
    with reduce_echelon's one back-substitution where reduced rows are read,
    against the brute-force span of the rows."""

    @ORACLE
    @given(bit_matrices())
    def test_insert_grows_rank_exactly_off_the_span(self, a):
        rows: dict[int, int] = {}
        for k, v in enumerate(a.row_bits):
            assert echelon_insert(rows, v) == (v not in span(a.row_bits[:k]))
        assert span(rows.values()) == span(a.row_bits)
        assert all(low_bit(r) == p for p, r in rows.items())

    @ORACLE
    @given(bit_matrices())
    def test_rank_and_echelon_form(self, a):
        space = span(a.row_bits)
        pivots = sorted({low_bit(v) for v in space if v})
        pivot_mask = sum(1 << p for p in pivots)
        # reduced echelon form: the one element per pivot that is zero at
        # every other pivot
        expected = [
            next(v for v in space if (v & pivot_mask) == 1 << p) for p in pivots
        ]
        assert len(space) == 1 << rank(a)
        rows: dict[int, int] = {}
        for v in a.row_bits:
            echelon_insert(rows, v)
        reduce_echelon(rows)
        assert ([rows[p] for p in sorted(rows)], sorted(rows)) == (expected, pivots)

    @ORACLE
    @given(bit_matrices(), st.randoms(use_true_random=False))
    def test_shuffled_inserts_reduce_to_the_unique_form(self, a, rng):
        space = span(a.row_bits)
        pivots = sorted({low_bit(v) for v in space if v})
        pivot_mask = sum(1 << p for p in pivots)
        expected = {
            p: next(v for v in space if (v & pivot_mask) == 1 << p) for p in pivots
        }
        order = list(a.row_bits)
        rng.shuffle(order)
        rows: dict[int, int] = {}
        for v in order:
            echelon_insert(rows, v)
        reduce_echelon(rows)
        assert rows == expected

    @ORACLE
    @given(bit_matrices())
    def test_row_space_basis_and_order(self, a):
        basis = [
            v for k, v in enumerate(a.row_bits)
            if v not in span(a.row_bits[:k])
        ]
        expected = []
        for mask in range(1 << len(basis)):
            omega = 0
            for k, b in enumerate(basis):
                if mask >> k & 1:
                    omega ^= b
            expected.append(omega)
        got = row_space(a)
        # the element at index mask has coefficient vector mask
        assert got == expected
        assert all(omega >> a.cols == 0 for omega in got)

    @ORACLE
    @given(bit_matrices(square=True))
    def test_basis_change_or_dependence(self, a):
        n = a.rows
        vectors = a.column_bits()
        if len(span(vectors)) < 1 << n:
            with pytest.raises(InternalConsistencyError, match="linearly dependent"):
                find_basis_change(vectors, n)
        else:
            g = find_basis_change(vectors, n)
            assert images(g, vectors) == [1 << i for i in range(n)]

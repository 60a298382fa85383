"""Exact GF(2) linear algebra: spec examples and algebraic properties."""

import random

import pytest

from smallcover.gf2 import (
    BitMatrix,
    BitVec,
    GF2Error,
    enumerate_gl,
    find_basis_change,
    invert,
    kernel_basis,
    rank,
    row_space,
)


def vec(*coords):
    return BitVec.from_coords(coords)


class TestBitVec:
    def test_coords_round_trip(self):
        v = vec(1, 0, 1, 1)
        assert v.coords() == (1, 0, 1, 1)
        assert v.support() == (0, 2, 3)
        assert len(v) == 4
        assert v.weight() == 3

    def test_low_index_is_low_bit(self):
        assert vec(1, 0, 0).bits == 1
        assert vec(0, 0, 1).bits == 4

    def test_index_bounds(self):
        v = vec(1, 0)
        with pytest.raises(GF2Error):
            v[2]
        with pytest.raises(GF2Error):
            v[-1]

    def test_addition_is_xor(self):
        assert (vec(1, 1, 0) + vec(0, 1, 1)).coords() == (1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(GF2Error):
            vec(1, 0) + vec(1, 0, 0)

    def test_bits_out_of_range(self):
        with pytest.raises(GF2Error):
            BitVec(2, 4)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_two_independent_rows(self):
        assert rank(BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])) == 2

    def test_zero_matrix(self):
        assert rank(BitMatrix.zero(2, 3)) == 0

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(20240)
        for _ in range(60):
            rows = rng.randrange(1, 13)
            cols = rng.randrange(1, 13)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            assert rank(m) == rank(m.transpose())


class TestKernel:
    def test_column_sum_kernel(self):
        basis = kernel_basis(BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]]))
        assert [b.coords() for b in basis] == [(1, 1, 1)]

    def test_identity_kernel_empty(self):
        assert kernel_basis(BitMatrix.identity(2)) == []

    def test_zero_matrix_full_kernel(self):
        basis = kernel_basis(BitMatrix.zero(2, 3))
        assert [b.coords() for b in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_kernel_dim_plus_rank_is_cols(self):
        rng = random.Random(828)
        for _ in range(60):
            rows = rng.randrange(1, 10)
            cols = rng.randrange(1, 10)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            assert len(kernel_basis(m)) + rank(m) == cols
            for v in kernel_basis(m):
                assert m.apply(v).is_zero()


class TestRowSpace:
    def test_two_row_example(self):
        elems = row_space(BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]]))
        assert [(w.coords(), c.coords()) for w, c in elems] == [
            ((0, 0, 0), (0, 0)),
            ((1, 0, 1), (1, 0)),
            ((0, 1, 1), (0, 1)),
            ((1, 1, 0), (1, 1)),
        ]

    def test_zero_row(self):
        elems = row_space(BitMatrix.zero(1, 3))
        assert len(elems) == 1
        assert elems[0][0].is_zero()

    def test_identity_gives_all_vectors(self):
        elems = row_space(BitMatrix.identity(2))
        assert sorted(w.bits for w, _ in elems) == [0, 1, 2, 3]

    def test_size_is_two_to_rank_and_closed(self):
        rng = random.Random(99)
        for _ in range(25):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 8)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            elems = row_space(m)
            values = {w.bits for w, _ in elems}
            assert len(elems) == len(values) == 1 << rank(m)
            assert all(a ^ b in values for a in values for b in values)

    def test_guard(self):
        with pytest.raises(GF2Error):
            row_space(BitMatrix.zero(31, 2))


class TestBasisChange:
    def test_standard_basis_gives_identity(self):
        g = find_basis_change([vec(1, 0), vec(0, 1)], 2)
        assert g == BitMatrix.identity(2)

    def test_forced_two_dim(self):
        v1, v2 = vec(1, 0), vec(1, 1)
        g = find_basis_change([v1, v2], 2)
        assert g.apply(v1) == vec(1, 0)
        assert g.apply(v2) == vec(0, 1)

    def test_three_dim_example(self):
        vs = [vec(1, 1, 1), vec(0, 1, 0), vec(0, 0, 1)]
        g = find_basis_change(vs, 3)
        assert g.row_bits == (0b001, 0b011, 0b101)
        for i, v in enumerate(vs):
            assert g.apply(v) == BitVec.unit(3, i)

    def test_contract_on_random_bases(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 7)
            while True:
                m = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
                if rank(m) == n:
                    break
            vs = m.columns()
            g = find_basis_change(vs, n)
            assert rank(g) == n
            for i, v in enumerate(vs):
                assert g.apply(v) == BitVec.unit(n, i)

    def test_dependent_input_rejected(self):
        with pytest.raises(GF2Error):
            find_basis_change([vec(1, 0), vec(1, 0)], 2)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(GF2Error):
            find_basis_change([vec(1, 0, 0), vec(0, 1, 0)], 2)


class TestMatrixOps:
    def test_invert_round_trip(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randrange(1, 8)
            while True:
                m = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
                if rank(m) == n:
                    break
            assert m @ invert(m) == BitMatrix.identity(n)

    def test_invert_singular(self):
        with pytest.raises(GF2Error):
            invert(BitMatrix.zero(2, 2))

    def test_matmul_vs_apply(self):
        a = BitMatrix.from_lists([[1, 1, 0], [0, 1, 1]])
        b = BitMatrix.from_lists([[1, 0], [1, 1], [0, 1]])
        prod = a @ b
        for j in range(2):
            assert prod.column(j) == a.apply(b.column(j))


class TestColumnBits:
    def test_columns_in_one_pass(self):
        rng = random.Random(21)
        for _ in range(50):
            rows, cols = rng.randrange(0, 7), rng.randrange(0, 9)
            m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
            assert m.column_bits() == [m.column(j).bits for j in range(cols)]
            assert m.columns() == [m.column(j) for j in range(cols)]
            assert BitMatrix.from_column_bits(rows, m.column_bits()) == m
            t = m.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert all(t.row_bits[j] == m.column(j).bits for j in range(cols))
            if cols:
                assert BitMatrix.from_columns(m.columns()) == m

    def test_from_columns_matches_coordinates(self):
        cols = [vec(1, 0, 1), vec(0, 0, 1), vec(1, 1, 0), vec(0, 0, 0)]
        m = BitMatrix.from_columns(cols)
        assert m == BitMatrix.from_lists([[1, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 0]])

    def test_column_out_of_range(self):
        with pytest.raises(GF2Error):
            BitMatrix.from_column_bits(2, [0b01, 0b100])


class TestEnumerateGL:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 168), (4, 20160)])
    def test_group_order(self, n, count):
        seen = list(enumerate_gl(n))
        assert len(seen) == count
        assert all(rank(g) == n for g in seen[:50])

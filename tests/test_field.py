import pytest
from hypothesis import given, strategies as st

from qbeads.errors import InputError
import qbeads.field
from qbeads.field import MAX_VECTORS, PrimeField, VectorTables, is_prime

from field_ops import bilinear_eval, scalar_mul, vec_add
from search_oracle import all_matrices, alternating_matrices

# a 19-digit prime: trial division would take about 10^9 steps
MERSENNE_61 = 2**61 - 1


def test_primality_gate():
    for p in (2, 3, 5, 7, 11, 13):
        assert is_prime(p)
    for p in (-1, 0, 1, 4, 6, 9, 15, 21):
        assert not is_prime(p)
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)


def test_size_guard():
    # every size the catalog, the benchmark and the ladder use passes
    assert MAX_VECTORS >= 81
    assert len(PrimeField(3).vector_tables(4).vectors) == 81
    with pytest.raises(InputError, match="exceeds the largest supported"):
        PrimeField(MERSENNE_61)
    with pytest.raises(InputError, match="more than 1024 vectors"):
        PrimeField(1009).vector_tables(2)
    with pytest.raises(InputError, match="more than 1024 vectors"):
        PrimeField(2).vector_tables(11)
    # refused without computing 2^(10^18)
    with pytest.raises(InputError, match="more than 1024 vectors"):
        PrimeField(2).vector_tables(10**18)


def test_size_guard_boundary(monkeypatch):
    monkeypatch.setattr(qbeads.field, "MAX_VECTORS", 9)
    assert PrimeField(7).p == 7
    assert len(PrimeField(3).vector_tables(2).vectors) == 9
    assert len(PrimeField(2).vector_tables(3).vectors) == 8
    with pytest.raises(InputError):
        PrimeField(11)
    with pytest.raises(InputError):
        PrimeField(2).vector_tables(4)
    with pytest.raises(InputError):
        PrimeField(5).vector_tables(2)


def test_all_vectors_is_lexicographic():
    f = PrimeField(2)
    assert f.all_vectors(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    f3 = PrimeField(3)
    vs = f3.all_vectors(2)
    assert len(vs) == 9
    assert vs[0] == (0, 0) and vs[1] == (0, 1) and vs[-1] == (2, 2)
    assert list(vs) == sorted(vs)


def test_vector_arithmetic():
    f = PrimeField(3)
    assert vec_add(f, (1, 2), (2, 2)) == (0, 1)
    assert scalar_mul(f, 2, (1, 2)) == (2, 1)


def test_bilinear_eval():
    f = PrimeField(2)
    S = ((0, 1), (1, 0))
    # u^T S v = u1*v2 + u2*v1
    assert bilinear_eval(f, S, (1, 0), (0, 1)) == 1
    assert bilinear_eval(f, S, (1, 0), (1, 0)) == 0
    assert bilinear_eval(f, S, (1, 1), (1, 1)) == 0


def test_alternating_detection():
    f = PrimeField(2)
    # over F_2, alternating means zero diagonal and symmetric
    assert f.is_alternating(((0, 1), (1, 0)))
    assert not f.is_alternating(((1, 0), (0, 0)))
    assert not f.is_alternating(((0, 1), (0, 0)))
    f3 = PrimeField(3)
    assert f3.is_alternating(((0, 1), (2, 0)))
    assert not f3.is_alternating(((0, 1), (1, 0)))


def test_alternating_matches_vanishing_quadratic():
    # [v, v] = 0 for every vector exactly when the matrix passes the
    # structural test; checked exhaustively over all 2x2 matrices mod 2
    f = PrimeField(2)
    for B in all_matrices(f, 2):
        vanishes = all(bilinear_eval(f, B, v, v) == 0 for v in f.all_vectors(2))
        assert f.is_alternating(B) == vanishes


def test_rank_and_nondegeneracy():
    f = PrimeField(2)
    assert f.matrix_rank(((0, 1), (1, 0))) == 2
    assert f.matrix_rank(((0, 0), (0, 0))) == 0
    assert f.matrix_rank(((1, 1), (1, 1))) == 1
    assert f.is_nondegenerate(((0, 1), (1, 0)))
    assert not f.is_nondegenerate(((1, 1), (1, 1)))


def test_all_matrices_count():
    f = PrimeField(2)
    mats = list(all_matrices(f, 2))
    assert len(mats) == 16
    assert len(set(mats)) == 16


@pytest.mark.parametrize(
    "p, n", [(p, n) for p in (2, 3, 5) for n in (0, 1, 2, 3)] + [(2, 4)]
)
def test_alternating_matrices_are_the_filtered_matrices(p, n):
    # n = 4 is the first size at which a row-major and a column-major
    # walk of the upper triangle differ
    f = PrimeField(p)
    expected = [M for M in all_matrices(f, n) if f.is_alternating(M)]
    assert alternating_matrices(f, n) == expected
    assert len(expected) == p ** (n * (n - 1) // 2) == f.alternating_count(n)


@pytest.mark.parametrize(
    "p, n", [(2, 0), (2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (7, 2), (31, 1), (101, 1)]
)
def test_vector_tables(p, n):
    f = PrimeField(p)
    t = VectorTables(f, n)
    vs = t.vectors
    assert vs == f.all_vectors(n)
    # index i has the base-p digits of i, the first coordinate most significant
    assert all(sum(a * p ** (n - 1 - k) for k, a in enumerate(v)) == i for i, v in enumerate(vs))
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            assert vs[t.vadd[i][j]] == vec_add(f, u, v)
            assert t.dot[i][j] == sum(a * b for a, b in zip(u, v)) % p
    for s in range(p):
        assert [vs[k] for k in t.smul[s]] == [scalar_mul(f, s, v) for v in vs]
    units = sorted((0,) * k + (1,) + (0,) * (n - k - 1) for k in range(n))
    assert [vs[k] for k in t.units] == units
    assert t.units == sorted(t.units)


@given(st.data())
def test_bilinear_table_matches_eval(data):
    p, n = data.draw(
        st.sampled_from([(2, 0), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    )
    f = PrimeField(p)
    B = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    t = VectorTables(f, n)
    table = t.bilinear_table(B)
    assert table == [[bilinear_eval(f, B, u, v) for v in t.vectors] for u in t.vectors]

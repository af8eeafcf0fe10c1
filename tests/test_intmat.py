import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from latrank import intmat


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_hnf_identity():
    H, U = intmat.hermite_normal_form(intmat.identity(3))
    assert H == intmat.identity(3)
    assert U == intmat.identity(3)


def test_hnf_example():
    M = [[2, 4], [1, 3]]
    H, U = intmat.hermite_normal_form(M)
    assert intmat.mat_mul(U, M) == H
    assert abs(intmat.det(U)) == 1
    # canonical row HNF of this matrix
    assert H == [[1, 1], [0, 2]]


def test_hnf_zero_row_sinks():
    M = [[0, 0], [3, 1]]
    H, U = intmat.hermite_normal_form(M)
    assert H[-1] == [0, 0]
    assert intmat.mat_mul(U, M) == H


def test_hnf_random_properties():
    rng = random.Random(0)
    for _ in range(40):
        M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        H, U = intmat.hermite_normal_form(M)
        assert intmat.mat_mul(U, M) == H
        assert abs(intmat.det(U)) == 1
        # pivots strictly move right, entries above pivots reduced
        last = -1
        for row in H:
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                continue
            assert piv > last
            last = piv
            assert row[piv] > 0


def test_snf_examples():
    d, U, V = intmat.smith_normal_form([[2, 0], [0, 3]])
    assert d == [1, 6]
    d, U, V = intmat.smith_normal_form(intmat.identity(2))
    assert d == [1, 1]
    d, U, V = intmat.smith_normal_form([[2, 0], [0, 2]])
    assert d == [2, 2]


def test_snf_random_properties():
    rng = random.Random(1)
    for _ in range(40):
        M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        d, U, V = intmat.smith_normal_form(M)
        S = intmat.mat_mul(intmat.mat_mul(U, M), V)
        for i, row in enumerate(S):
            for j, x in enumerate(row):
                assert x == (d[i] if i == j and i < len(d) else 0)
        assert abs(intmat.det(U)) == 1
        assert abs(intmat.det(V)) == 1
        nz = [x for x in d if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_rank_and_det():
    assert intmat.rank([[1, 2], [2, 4]]) == 1
    assert intmat.det([[1, 2], [3, 4]]) == -2
    assert intmat.det([[2, 0], [0, 0]]) == 0


def test_leading_minors_random_symmetric():
    # d[k] and lam[i][j] against Fraction determinants of the bordered blocks
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        B = random_int_matrix(rng, n, max(1, n + rng.randint(-1, 2)))
        G = intmat.mat_mul(B, intmat.transpose(B))
        if rng.random() < 0.3:
            G[n - 1][n - 1] -= rng.randint(0, 400)  # may turn a minor non-positive
        d, lam = intmat.leading_minors(G)
        minors = [intmat.det([row[:k] for row in G[:k]]) for k in range(n + 1)]
        stop = next((k for k in range(1, n + 1) if minors[k] <= 0), n)
        assert d == minors[:stop + 1]
        for i in range(n):
            for j in range(min(i, stop)):
                rows = list(range(j)) + [i]
                assert lam[i][j] == intmat.det([[G[a][b] for b in range(j + 1)] for a in rows])


def test_leading_minors_stop_at_first_non_positive():
    assert intmat.leading_minors([[1, 0, 0], [0, 0, 0], [0, 0, 5]])[0] == [1, 1, 0]
    assert intmat.leading_minors([[1, 2, 0], [2, 1, 0], [0, 0, 1]])[0] == [1, 1, -3]
    assert intmat.leading_minors([])[0] == [1]


def test_solve_and_inverse():
    A = [[2, 1], [1, 1]]
    x = intmat.solve(A, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    Ainv = intmat.inverse(A)
    assert intmat.mat_mul(A, Ainv) == [[1, 0], [0, 1]]


def test_saturation_basis():
    sat = intmat.saturation_basis([[2, 4]])
    assert len(sat) == 1
    a, b = sat[0]
    assert b == 2 * a and abs(a) == 1
    # saturation of a saturated lattice spans the same rank
    sat2 = intmat.saturation_basis(sat)
    assert intmat.rank(sat2) == 1


@st.composite
def _int_matrices(draw):
    """Integer matrices up to 4 x 4, a third of them B C of lower inner rank."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ints = st.integers(-20, 20)
    inner = draw(st.integers(0, min(rows, cols)))
    if inner == min(rows, cols):
        return [[draw(ints) for _ in range(cols)] for _ in range(rows)]
    if inner == 0:
        return [[0] * cols for _ in range(rows)]
    small = st.integers(-4, 4)
    B = [[draw(small) for _ in range(inner)] for _ in range(rows)]
    C = [[draw(small) for _ in range(cols)] for _ in range(inner)]
    return intmat.mat_mul(B, C)


@settings(max_examples=150, deadline=None)
@given(A=_int_matrices())
def test_snf_inverse_transform(A):
    d, U, V, Vinv = intmat.smith_normal_form(A, with_inverse=True)
    assert (d, U, V) == intmat.smith_normal_form(A)
    n = len(V)
    assert intmat.mat_mul(V, Vinv) == intmat.identity(n)
    assert intmat.mat_mul(Vinv, V) == intmat.identity(n)
    S = intmat.mat_mul(intmat.mat_mul(U, A), V)
    assert all(x == (d[i] if i == j else 0) for i, row in enumerate(S) for j, x in enumerate(row))
    # the saturation basis is read off V^-1; the Fraction inverse agrees
    r = sum(1 for x in d if x)
    assert intmat.saturation_basis(A) == [[int(x) for x in row] for row in intmat.inverse(V)[:r]]
    assert intmat.rank(A) == r

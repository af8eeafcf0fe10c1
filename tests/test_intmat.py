import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from latrank import intmat
from tests_support import hermite_loop, max_minor_gcd, rref_loop, smith_normal_form


def random_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _same_lattice(M, H):
    """The rows of M and the nonzero rows of the echelon matrix H span the same lattice.

    Every row of M is an integral combination of H's rows (solved exactly on
    H's pivot columns), and both have the same gcd of maximal minors, so the
    index of one span in the other is 1.
    """
    basis = [row for row in H if any(row)]
    if not basis:
        return not any(any(row) for row in M)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    square = intmat.transpose([[row[p] for p in pivots] for row in basis])
    for row in M:
        y = intmat.solve(square, [row[p] for p in pivots])
        if any(c.denominator != 1 for c in y) or intmat.vec_mat(y, basis) != list(row):
            return False
    return max_minor_gcd(M) == max_minor_gcd(basis)


def test_hnf_identity():
    assert intmat.hermite_normal_form(intmat.identity(3)) == intmat.identity(3)


def test_hnf_example():
    M = [[2, 4], [1, 3]]
    H = intmat.hermite_normal_form(M)
    assert _same_lattice(M, H)
    # canonical row HNF of this matrix
    assert H == [[1, 1], [0, 2]]


def test_hnf_zero_row_sinks():
    M = [[0, 0], [3, 1]]
    H = intmat.hermite_normal_form(M)
    assert H[-1] == [0, 0]
    assert _same_lattice(M, H)


def test_hnf_random_properties():
    rng = random.Random(0)
    for _ in range(40):
        M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        H = intmat.hermite_normal_form(M)
        assert _same_lattice(M, H)
        # pivots strictly move right, positive, entries above pivots reduced
        last = -1
        for i, row in enumerate(H):
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                assert not any(any(r) for r in H[i:])
                break
            assert piv > last
            last = piv
            assert row[piv] > 0
            assert all(0 <= H[t][piv] < row[piv] for t in range(i))


def test_snf_examples():
    # the reference Smith form of tests_support
    assert smith_normal_form([[2, 0], [0, 3]])[0] == [1, 6]
    assert smith_normal_form(intmat.identity(2))[0] == [1, 1]
    assert smith_normal_form([[2, 0], [0, 2]])[0] == [2, 2]


def test_snf_random_properties():
    # divisors that divide each other, as many nonzero ones as the rank, and
    # their product the gcd of the maximal minors
    rng = random.Random(1)
    for _ in range(40):
        M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        nz = [x for x in smith_normal_form(M)[0] if x]
        assert all(x > 0 for x in nz) and len(nz) == intmat.rank(M)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        if nz:
            assert math.prod(nz) == max_minor_gcd(M)


@st.composite
def _rational_matrices(draw):
    """0-4 x 0-4 matrices of ints and Fractions, some with a row that depends on
    the others, some scaled by 10^15 so that Bareiss runs on Python ints."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6),
                                                    st.integers(1, 7)))
    A = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
    scale = draw(st.sampled_from([1, 10 ** 15]))
    return [[x * scale for x in row] for row in A]


@settings(max_examples=300, deadline=None)
@given(A=_rational_matrices())
def test_rref_matches_loop(A):
    R, pivots, rank = intmat.rref(A)
    assert (R, pivots, rank) == rref_loop(A)
    assert all(type(x) is Fraction for row in R for x in row)


def test_rref_edge_shapes():
    assert intmat.rref([]) == ([], [], 0) == rref_loop([])
    assert intmat.rref([[], []]) == ([[], []], [], 0) == rref_loop([[], []])
    assert intmat.rref([[0, 0]]) == ([[0, 0]], [], 0)


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
    # A / q = [[1, 2]]: Z (1, 2) is saturated
    assert intmat.saturation_basis(1, [[1, 2]]) == ([[1, 2]], 1)
    # A / q = [[1, 1/2]]: y (1, 1/2) is integral iff y is even
    assert intmat.saturation_basis(2, [[2, 1]]) == ([[2, 1]], 2)
    # A / q = [[1, 0, 1/3], [0, 1, 2/3]]: y is integral iff y_1 + 2 y_2 = 0 mod 3
    assert intmat.saturation_basis(3, [[3, 0, 1], [0, 3, 2]]) == ([[1, 1, 1], [0, 3, 2]], 3)


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
@given(M=_int_matrices())
def test_hnf_matches_loop(M):
    H, U = hermite_loop(M)
    assert intmat.mat_mul(U, M) == H and abs(intmat.det(U)) == 1
    assert intmat.hermite_normal_form(M) == H


@settings(max_examples=150, deadline=None)
@given(A=_int_matrices())
def test_saturation_basis_oracles(A):
    R, _, r = rref_loop(A)
    if r == 0:
        return
    q, num = intmat._integral(R[:r])
    S, den = intmat.saturation_basis(q, num)
    # a Hermite basis of a saturated lattice in the row space of A
    assert intmat.hermite_normal_form(S) == S and len(S) == r
    assert rref_loop(A + S)[2] == r and max_minor_gcd(S) == 1
    # of index den in Z^r R: det Gram(S) = den^2 det Gram(R)
    gram = lambda B: intmat.det(intmat.mat_mul(B, intmat.transpose(B)))  # noqa: E731
    assert gram(S) == den ** 2 * gram(R[:r])

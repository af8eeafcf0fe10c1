import contextlib
import hashlib
import itertools
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latrank import (
    PowerProduct,
    denominator,
    echelon_of_module,
    enumerate_primitive_modules,
    lambda_of,
    okn_lattice,
    schmidt_count,
    to_echelon,
)
from latrank import intmat, kernels
from latrank import modules, zlattice
from latrank.modules import (
    _candidates,
    _echelon,
    _echelon_keys,
    _echelon_matrix,
    dump_module_lines,
    rank_factorize,
    span_modules,
)
from latrank.numfield import _regular_rows, flatten_kvector, rank_over_K
from latrank.zlattice import (
    Ambient,
    ZLattice,
    _check_ok_stable,
    direct_sum,
    is_primitive_in,
    short_vectors,
)
from tests_support import (
    brute_force_short,
    denominator_loop,
    echelon_rref,
    from_integral_coords,
    is_integral,
    jacobian,
    jacobian_sq,
    k_rref,
    kmat_mul,
    lambda_of_loop,
    matrices_with_rows,
    matrix_module_index,
    max_minor_gcd,
    modules_reference,
    rref_loop,
    span_modules_loop,
    _w_blocks,
)


class TestToEchelon:
    def test_identity(self, QQ):
        D = to_echelon(QQ, [[1, 0], [0, 1]])
        assert D.pivot_cols == (0, 1)
        assert D.rows[0][0] == QQ.one()

    def test_row_scaling(self, QQ):
        D = to_echelon(QQ, [[2, 1]])
        assert D.rows[0][1] == QQ.coerce(Fraction(1, 2))

    def test_gaussian_elimination(self, Qi):
        i = Qi.gen()
        D = to_echelon(Qi, [[Qi.one(), Qi.one()], [Qi.zero(), i]])
        assert D.rows[0][1].is_zero()
        assert D.rows[1][1] == Qi.one()

    def test_rank_deficient_rejected(self, QQ):
        with pytest.raises(ValueError):
            to_echelon(QQ, [[1, 2], [2, 4]])

    def test_canonical_under_basis_change(self, QQ, Qi):
        rng = random.Random(4)
        for K in (QQ, Qi):
            base = [[K.coerce(1), K.coerce(2), K.coerce(Fraction(1, 3))],
                    [K.coerce(0), K.coerce(1), K.coerce(5)]]
            D = to_echelon(K, base)
            for _ in range(5):
                # left-multiply by a random invertible 2x2 over K
                while True:
                    g = [[K.coerce(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
                    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
                    if not det.is_zero():
                        break
                mixed = [
                    [g[r][0] * base[0][c] + g[r][1] * base[1][c] for c in range(3)]
                    for r in range(2)
                ]
                D2 = to_echelon(K, mixed)
                assert D2.key() == D.key()


class TestLambdaAndDenominator:
    def test_half_vector(self, QQ):
        D = to_echelon(QQ, [[1, Fraction(1, 2)]])
        P = lambda_of(D)
        assert P.denominator == 2
        assert P.height_sq == PowerProduct.coerce(5)
        row = [abs(int(x)) for x in P.lattice.basis[0]]
        assert row == [2, 1]

    def test_pivot_only(self, QQ):
        D = to_echelon(QQ, [[1, 0]])
        P = lambda_of(D)
        assert P.denominator == 1
        assert P.height == 1.0

    def test_denominator_k2_m3(self, QQ):
        D = to_echelon(QQ, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]])
        assert denominator(D) == 6

    def test_denominator_brute_force_oracle(self, QQ):
        # count residues v mod q with v D integral (k = 2, m = 3)
        D = to_echelon(QQ, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]])
        q = 6
        good = 0
        for v in itertools.product(range(q), repeat=2):
            img = [v[0], v[1], Fraction(v[0], 2) + Fraction(v[1], 3)]
            if all(Fraction(x).denominator == 1 for x in img):
                good += 1
        assert denominator(D) == q ** 2 // good

    def test_gaussian_denominator(self, Qi):
        i = Qi.gen()
        D = to_echelon(Qi, [[Qi.one(), (Qi.one() + i) / 2]])
        P = lambda_of(D)
        assert P.denominator == 2
        # brute-force oracle: residues of O_K mod 2 with v*D integral
        good = 0
        for a, b in itertools.product(range(2), repeat=2):
            v = Qi.element([a, b])
            if is_integral(Qi, v * D.rows[0][1]):
                good += 1
        assert P.denominator == 4 // good

    def test_lattice_is_primitive_and_stable(self, QQ, Qi):
        for K, entry in ((QQ, Fraction(1, 2)), (Qi, Fraction(1, 2))):
            D = to_echelon(K, [[K.one(), K.coerce(entry)]])
            P = lambda_of(D)
            amb = okn_lattice(K, 2)
            assert is_primitive_in(P.lattice, amb)


class TestTrijection:
    def test_round_trip_simple(self, QQ):
        D = to_echelon(QQ, [[1, Fraction(1, 2)]])
        P = lambda_of(D)
        assert echelon_of_module(P.lattice).key() == D.key()

    def test_round_trip_pivot(self, QQ):
        D = to_echelon(QQ, [[1, 0]])
        P = lambda_of(D)
        assert echelon_of_module(P.lattice).key() == D.key()

    def test_round_trip_all_enumerated(self, QQ, Qi):
        for K, bound in ((QQ, 5), (Qi, 2)):
            for P in enumerate_primitive_modules(K, 1, 2, bound):
                assert echelon_of_module(P.lattice).key() == P.echelon.key()

    def test_round_trip_rank2(self, QQ):
        for P in enumerate_primitive_modules(QQ, 2, 3, 3):
            assert echelon_of_module(P.lattice).key() == P.echelon.key()

    def test_non_primitive_rejected(self, QQ):
        from latrank.zlattice import Ambient, ZLattice

        amb = Ambient.for_field(QQ, 2)
        L = ZLattice([[2, 0]], amb)
        with pytest.raises(ValueError):
            echelon_of_module(L)


class TestEnumeration:
    def test_bound_two(self, QQ):
        mods = enumerate_primitive_modules(QQ, 1, 2, 2)
        assert len(mods) == 4
        keys = {tuple(float(x.coords[0]) for x in P.echelon.rows[0]) for P in mods}
        assert keys == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)}

    def test_bound_one(self, QQ):
        assert schmidt_count(QQ, 1, 2, 1) == 2

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_bound_must_be_finite(self, QQ, bound):
        with pytest.raises(ValueError, match="height_bound must be finite"):
            enumerate_primitive_modules(QQ, 1, 2, bound)

    def test_full_rank_single_module(self, QQ):
        mods = enumerate_primitive_modules(QQ, 2, 2, 7)
        assert len(mods) == 1
        assert mods[0].height == 1.0

    def test_heights_sorted_and_below_bound(self, QQ):
        mods = enumerate_primitive_modules(QQ, 1, 2, 10)
        hs = [P.height for P in mods]
        assert hs == sorted(hs)
        assert all(h <= 10 + 1e-9 for h in hs)

    def test_brute_force_count(self, QQ):
        # primitive pairs (a, b) with a^2 + b^2 <= T^2, up to sign
        for T in (5, 10):
            expect = 0
            for a in range(-T, T + 1):
                for b in range(-T, T + 1):
                    if (a, b) != (0, 0) and a * a + b * b <= T * T \
                            and math.gcd(abs(a), abs(b)) == 1:
                        expect += 1
            assert schmidt_count(QQ, 1, 2, T) == expect // 2

    def test_growth_window(self, QQ):
        counts = {T: schmidt_count(QQ, 1, 2, T) for T in (5, 10, 20, 40)}
        for T in (5, 10, 20):
            ratio = counts[2 * T] / counts[T]
            assert 2 <= ratio <= 8

    def test_rank2_m3_against_direct_check(self, QQ):
        # every enumerated module is primitive, stable, and within the bound;
        # moreover distinct keys give distinct lattices
        mods = enumerate_primitive_modules(QQ, 2, 3, 2)
        amb = okn_lattice(QQ, 3)
        seen = set()
        for P in mods:
            assert P.height <= 2 + 1e-9
            assert is_primitive_in(P.lattice, amb)
            key = P.echelon.key()
            assert key not in seen
            seen.add(key)
        assert len(mods) >= 6   # at least all pivot-pair modules with H = 1

    @pytest.mark.parametrize("k,m,radius", [(1, 2, 3), (2, 3, 2), (2, 3, Fraction(5, 2)),
                                            (2, 4, Fraction(3, 2)), (2, 2, 1),
                                            (2, 2, Fraction(1, 2))])
    def test_span_modules_against_height_enumeration(self, QQ, k, m, radius):
        # k independent vectors v_i of Lambda give H(Lambda) <= prod ||v_i||, so
        # the modules spanned by vectors of norm <= radius are those of the
        # complete enumeration below radius^k whose short vectors have rank k
        got = span_modules(okn_lattice(QQ, m), k, radius)
        want = []
        for P in enumerate_primitive_modules(QQ, k, m, max(1, Fraction(radius) ** k)):
            rows = [P.lattice.to_ambient(c) for c in short_vectors(P.lattice, radius).tolist()]
            if rref_loop(rows)[2] == k:
                want.append(P)
        assert [(P.key(), P.height_sq, P.denominator) for P in got] == \
            [(P.key(), P.height_sq, P.denominator) for P in want]


class TestMatricesWithRows:
    def test_n1_matches_short_vectors(self, QQ):
        from latrank.zlattice import short_vectors

        D = to_echelon(QQ, [[1, Fraction(1, 2)]])
        P = lambda_of(D)
        mats = matrices_with_rows(1, P, 3)
        assert len(mats) == len(short_vectors(P.lattice, 3))

    def test_nine_matrices(self, QQ):
        D = to_echelon(QQ, [[1, Fraction(1, 2)]])
        P = lambda_of(D)
        mats = matrices_with_rows(2, P, PowerProduct.coerce(10).sqrt())
        assert len(mats) == 9

    def test_below_min_norm_only_zero(self, QQ):
        D = to_echelon(QQ, [[1, Fraction(1, 2)]])
        P = lambda_of(D)
        mats = matrices_with_rows(2, P, 1)
        assert len(mats) == 1
        assert all(x.is_zero() for rows in mats for row in rows for x in row)


class TestIdentities:
    def test_index_identity(self, QQ, Qi):
        cases = [
            (QQ, [[1, Fraction(1, 2)]]),
            (QQ, [[1, Fraction(2, 3)]]),
            (QQ, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]]),
        ]
        for K, rows in cases:
            D = to_echelon(K, rows)
            dd = denominator(D)
            for n in (1, 2):
                assert matrix_module_index(D, n) == dd ** n
        i = Qi.gen()
        D = to_echelon(Qi, [[Qi.one(), (Qi.one() + i) / 2]])
        for n in (1, 2):
            assert matrix_module_index(D, n) == denominator(D) ** n

    def test_height_power_law(self, QQ, Qi):
        for K, rows in ((QQ, [[1, Fraction(1, 2)]]), (Qi, [[1, Fraction(1, 2)]])):
            D = to_echelon(K, rows)
            P = lambda_of(D)
            for n in (1, 2, 3):
                stacked = direct_sum(P.lattice, n)
                assert abs(stacked.height() - P.height ** n) < 1e-10
                assert stacked.height_sq() == P.height_sq ** n

    def test_jacobian_identity(self, QQ, Qi, Qs5):
        cases = [
            (QQ, [[1, Fraction(1, 2)]]),
            (QQ, [[1, Fraction(3, 4), Fraction(1, 5)]]),
            (QQ, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]]),
            (Qi, [[1, Fraction(1, 2)]]),
            (Qs5, [[1, Fraction(1, 2)]]),
        ]
        for K, rows in cases:
            D = to_echelon(K, rows)
            P = lambda_of(D)
            assert abs(P.denominator * jacobian(D) - P.height) < 1e-10

    def test_invariants_under_basis_choice(self, QQ):
        rows = [[QQ.coerce(2), QQ.coerce(1), QQ.coerce(4)],
                [QQ.coerce(0), QQ.coerce(3), QQ.coerce(1)]]
        D1 = to_echelon(QQ, rows)
        mixed = [[rows[0][c] + rows[1][c] for c in range(3)],
                 [rows[1][c] - QQ.coerce(2) * rows[0][c] for c in range(3)]]
        D2 = to_echelon(QQ, mixed)
        assert D1.key() == D2.key()
        assert denominator(D1) == denominator(D2)
        assert lambda_of(D1).height == lambda_of(D2).height


class TestRankFactorize:
    def test_rank_one(self, QQ):
        C, D = rank_factorize(QQ, [[2, 1], [4, 2], [6, 3]])
        assert [x.coords[0] for row in C for x in row] == [2, 4, 6]
        assert D.rows[0][1] == QQ.coerce(Fraction(1, 2))

    def test_identity(self, QQ):
        C, D = rank_factorize(QQ, [[1, 0], [0, 1]])
        assert D.pivot_cols == (0, 1)

    def test_multiply_back_random(self, QQ, Qi):
        rng = random.Random(8)
        for K in (QQ, Qi):
            for _ in range(20):
                rows = [[K.coerce(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
                if rank_over_K(rows) == 0:
                    continue
                C, D = rank_factorize(K, rows)
                back = kmat_mul(C, [list(r) for r in D.rows])
                assert all(back[i][j] == rows[i][j] for i in range(3) for j in range(3))

    def test_zero_matrix_rejected(self, QQ):
        with pytest.raises(ValueError):
            rank_factorize(QQ, [[0, 0], [0, 0]])

    def test_integral_rows_lie_in_module(self, QQ):
        A = [[2, 1], [4, 2], [6, 3]]
        C, D = rank_factorize(QQ, A)
        P = lambda_of(D)
        for row in A:
            assert P.lattice.contains([Fraction(x) for x in row])


# -- module data against the FieldElement / Fraction reference --------------------


@st.composite
def _echelon_matrices(draw, field, max_num, max_den, m=None, k=None):
    """k x m echelon D (m = 2..3, k = 1..m unless given) whose free entries have
    integral-basis coordinates num / den with |num| <= max_num and den <= max_den."""
    m = draw(st.integers(2, 3)) if m is None else m
    k = draw(st.integers(1, m)) if k is None else k
    pivots = sorted(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)))
    rows = []
    for i, p in enumerate(pivots):
        row = []
        for j in range(m):
            if j in pivots or j < p:
                row.append(field.one() if j == p else field.zero())
            else:
                den = draw(st.integers(1, max_den))
                nums = draw(st.lists(st.integers(-max_num, max_num),
                                     min_size=field.degree, max_size=field.degree))
                row.append(from_integral_coords(field, [Fraction(a, den) for a in nums]))
        rows.append(row)
    return to_echelon(field, rows)


def _assert_same_module_data(D):
    # the same module: lambda_of's basis is the Hermite form, in integral
    # coordinates, of the reference's Smith basis
    P, R = lambda_of(D), lambda_of_loop(D)
    W, Winv = _w_blocks(D.field, D.m)
    ref = [[int(x) for x in row] for row in intmat.mat_mul(R.lattice.basis, Winv)]
    assert [list(row) for row in P.lattice.basis] == intmat.mat_mul(
        intmat.hermite_normal_form(ref), W)
    assert P.height_sq == R.height_sq and P.height == R.height
    assert P.denominator == R.denominator == denominator(D) == denominator_loop(D)
    _check_ok_stable(P.lattice)     # raises unless O_K preserves Lambda_D
    assert P.lattice.ambient.field is D.field


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_module_data_matches_reference_over_Q(data, QQ):
    _assert_same_module_data(data.draw(_echelon_matrices(QQ, 10 ** 6, 10 ** 6)))


@pytest.mark.parametrize("name", ["Qi", "Qs5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_module_data_matches_reference_quadratic(name, data, Qi, Qs5):
    # entries stay small: at m = 3 larger ones drive the reference's Smith form
    # (tests_support.smith_normal_form) into coefficient explosion (a 4 x 6
    # matrix with entries below 500 already runs for minutes); lambda_of itself
    # is checked on large entries by test_module_data_large_entries_gaussian
    field = {"Qi": Qi, "Qs5": Qs5}[name]
    _assert_same_module_data(data.draw(_echelon_matrices(field, 6, 6)))


@pytest.mark.parametrize("name", ["Qi", "Qs5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_module_data_matches_reference_quadratic_large_denominators(name, data, Qi, Qs5):
    field = {"Qi": Qi, "Qs5": Qs5}[name]
    num = st.integers(-10 ** 6, 10 ** 6)
    den = st.integers(1, 10 ** 6)
    entry = from_integral_coords(field, [Fraction(data.draw(num), data.draw(den)),
                                         Fraction(data.draw(num), data.draw(den))])
    _assert_same_module_data(to_echelon(field, [[field.one(), entry]]))


# the 4 x 6 q A of this k = 2, m = 3 echelon matrix over Q(i) made a Smith form
# grow its entries past 2 million bits; its Den(D) is 32400
def _found13(Qi):
    return to_echelon(Qi, [
        [Qi.one(), Qi.zero(), from_integral_coords(Qi, [Fraction(-11, 4), Fraction(-11, 9)])],
        [Qi.zero(), Qi.one(), from_integral_coords(Qi, [Fraction(-8, 5), Fraction(1, 3)])]])


@pytest.mark.parametrize("name,k", [(name, k) for name in ("QQ", "Qi", "Qs5") for k in (1, 2)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_module_data_pass_matches_loops(name, k, data, QQ, Qi, Qs5):
    # one batch of keys through the pass against lambda_of_loop and
    # denominator_loop per matrix: H^2, Den, the Hermite basis, and the
    # lattice built on first read; the FOUND-13 matrix rides in the Q(i)
    # batches at k = 2, where the Smith reference cannot run on it
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    m = 3 if k == 2 else data.draw(st.integers(2, 3))
    size = (10 ** 6, 10 ** 6) if field is QQ else (6, 6)
    Ds = data.draw(st.lists(_echelon_matrices(field, *size, m=m, k=k), min_size=1, max_size=4))
    if field is Qi and k == 2 and m == 3:
        Ds.append(_found13(Qi))
    amb = Ambient.for_field(field, m)
    got = modules._modules(field, k, [modules._key_of(D) for D in Ds], amb)
    W, Winv = _w_blocks(field, m)
    found13 = _found13(Qi).key()
    for D, P in zip(Ds, got):
        assert P.k == k and P.m == m and P.pivot_cols == D.pivot_cols
        assert "lattice" not in vars(P) and "echelon" not in vars(P)
        assert P.key() == D.key()
        one = lambda_of(D)
        assert (P.height_sq, P.height, P.denominator) == \
            (one.height_sq, one.height, one.denominator)
        if D.key() == found13:
            assert P.denominator == 32400 and P.denominator ** 2 * jacobian_sq(D) == P.height_sq
            continue
        R = lambda_of_loop(D)
        assert P.height_sq == R.height_sq and P.height == R.height
        assert P.denominator == R.denominator == denominator_loop(D)
        ref = [[int(x) for x in row] for row in intmat.mat_mul(R.lattice.basis, Winv)]
        assert P._hermite == intmat.hermite_normal_form(ref)
        basis = intmat.mat_mul(P._hermite, W)
        assert [list(row) for row in P.lattice.basis] == basis
        assert P.lattice.gram == ZLattice(basis, amb).gram
        assert P.lattice.height_sq() == P.height_sq and P.lattice.ambient is amb


def test_module_data_pass_rejects_bad_grams(QQ, monkeypatch):
    # every key's integer Gram is checked, though no lattice is built
    key = modules._key_of(to_echelon(QQ, [[1, 0], [0, 1]]))
    amb = Ambient.for_field(QQ, 2)
    total = modules._okm_form(amb)[1]
    for bad, message in (([[1, 1], [0, 1]], "not symmetric"),
                         ([[1, 0], [0, -1]], "not positive definite")):
        monkeypatch.setattr(modules, "_okm_form",
                            lambda amb, G=np.array(bad, dtype=object): (G, total))
        with pytest.raises(ValueError, match=message):
            modules._modules(QQ, 2, [key], amb)


@pytest.mark.parametrize("name,k,m", [("QQ", 1, 3), ("Qi", 2, 3)])
def test_module_lattice_takes_the_checked_gram(name, k, m, request, monkeypatch):
    # the pass's Gram check is the only one: building a module's lattice
    # neither recomputes nor rechecks B F B^T, and gives the Gram that the
    # constructor computes from the basis
    field = request.getfixturevalue(name)
    mods = enumerate_primitive_modules(field, k, m, 3)
    amb = Ambient.for_field(field, m)

    def no_check(*_):
        raise AssertionError("a module lattice rechecked its Gram")

    with monkeypatch.context() as patch:
        patch.setattr(zlattice, "_reduced_gram", no_check)
        lats = [P.lattice for P in mods]
    for P, lat in zip(mods, lats):
        ref = ZLattice(lat.basis, amb)
        assert (lat.gram_int, lat.gram_den, lat.det_gram()) == \
            (ref.gram_int, ref.gram_den, ref.det_gram())
        assert lat.height_sq() == P.height_sq


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_module_of(D):
    """Den(D)^2 J(D)^2 = H(D)^2 exactly, and Lambda_D is a saturated lattice
    that spans D's row space."""
    P = lambda_of(D)
    assert P.denominator ** 2 * jacobian_sq(D) == P.height_sq
    assert echelon_rref(D.field, P.lattice.basis).key() == D.key()
    ints = intmat.mat_mul(P.lattice.basis, _w_blocks(D.field, D.m)[1])
    assert max_minor_gcd([[int(x) for x in row] for row in ints]) == 1
    return P


def test_module_data_large_entries_gaussian(Qi):
    # k = 2, m = 3 over Q(i), where a Smith form of q A grew its entries past
    # 2 million bits; the guard turns a return of that blowup into a failure
    def draw(rng):
        x = lambda: Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))  # noqa: E731
        return to_echelon(Qi, [[Qi.one(), Qi.zero(), from_integral_coords(Qi, [x(), x()])],
                               [Qi.zero(), Qi.one(), from_integral_coords(Qi, [x(), x()])]])

    D = _found13(Qi)
    assert tuple(x.tolist() for x in modules._span_matrices(Qi, 2, [modules._key_of(D)])) == (
        [180], [[[180, 0, 0, 0, -495, -220],
                 [0, 180, 0, 0, 220, -495],
                 [0, 0, 180, 0, -288, 60],
                 [0, 0, 0, 180, -60, -288]]])
    rng = random.Random(13)
    with _time_limit(30):
        assert _assert_module_of(D).denominator == 32400 == denominator(D)
        for _ in range(30):
            _assert_module_of(draw(rng))


@pytest.mark.parametrize("name,m,radius", [("QQ", 3, 4), ("Qi", 2, 3), ("Qs5", 2, 3)])
def test_candidates_match_per_vector_path(name, m, radius, request):
    # sign representatives, float norms and K-rows against the exact per-vector
    # path, on int64 rows and on rows scaled past the int64 guard
    field = request.getfixturevalue(name)
    okm = okn_lattice(field, m)
    bden = intmat._integral(okm.basis)[0]
    vecs = short_vectors(okm, radius)

    def phi_rows(v):
        # Phi of the K-row, scaled by the lcm of the basis denominators
        flat = flatten_kvector(field, okm.kvector_of_coords(v))
        return _regular_rows(field, [[x * bden for x in flat]]).tolist()

    for rows in (vecs, vecs.astype(object) * 2 ** 40):
        kept = set()
        for v in map(tuple, rows.tolist()):
            if any(v) and tuple(-c for c in v) not in kept:
                kept.add(v)
        want = sorted(((float(okm.sqnorm_exact_of_coords(v)), v, phi_rows(v)) for v in kept),
                      key=lambda t: (t[0], t[1]))
        norms, phi = _candidates(okm, rows)
        assert list(zip(norms.tolist(), phi.tolist())) == [(t[0], t[2]) for t in want]
    assert [len(a) for a in _candidates(okm, vecs[:0])] == [0, 0]


@st.composite
def _k_matrices(draw, field):
    """k x m matrices over K (k, m <= 3): random, with rows that are K-combinations
    of the rows above them, or zero."""
    d = field.degree
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "dependent", "zero"]))

    def element():
        den = draw(st.integers(1, 4))
        return field.element([Fraction(draw(st.integers(-3, 3)), den) for _ in range(d)])

    if kind == "zero":
        return [[field.zero()] * m for _ in range(k)]
    rows = [[element() for _ in range(m)] for _ in range(k)]
    if kind == "dependent":
        for i in range(1, k):
            coeffs = [element() for _ in range(i)]
            rows[i] = [sum((c * rows[j][col] for j, c in enumerate(coeffs)), field.zero())
                       for col in range(m)]
    return rows


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5", "Qzeta9p", "Qzeta8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_echelon_matches_k_rref(name, data, QQ, Qi, Qs5, Qzeta9p, Qzeta8):
    # the integer echelon pass and the rational RREF of the regular
    # representation against Gauss-Jordan over K, on Phi rows as built and on
    # Phi rows scaled to integers one by one
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5, "Qzeta9p": Qzeta9p, "Qzeta8": Qzeta8}[name]
    rows = data.draw(_k_matrices(field))
    R, pivots, rank = k_rref(rows)
    phi = _regular_rows(field, [flatten_kvector(field, row) for row in rows]).tolist()
    scaled = [[x * intmat._integral([row])[0] for x in row] for row in phi]
    for phi_rows in (phi, scaled):
        for D in (_echelon(field, phi_rows), echelon_rref(field, phi_rows)):
            assert D.key() == tuple(tuple(x.coords for x in row) for row in R[:rank])
            assert D.pivot_cols == tuple(pivots)
            assert D.k == rank
    assert rank_over_K(rows) == rank


# sha256 of dump_module_lines(enumerate_primitive_modules(field, k, m, H)), as
# produced by Gauss-Jordan over K before echelon forms came from Phi; the last
# three as produced by one Hermite form per key, before the batched pass
GOLDEN_DUMPS = {
    ("QQ", 1, 2, 20): "ba51990acbe425b34c116d793dd35cf4508f37a9574022792d649b1bdc43c4c7",
    ("QQ", 2, 3, 6): "26c1747e344bddb842bb3c946a7f965f8467bc532fa16aade238e56f3ebf7828",
    ("Qi", 1, 2, 20): "4a8dc31502e81822dad55a4aced2c1979c9a939c791f6c09ea5cf932711c079d",
    ("Qs5", 1, 2, 12): "fb50e73a807e03a42ce1232aa348465cf5e4a15421281ec9a0f10baae4749bd3",
    ("Qzeta9p", 1, 2, 4): "39d02896f88ad60466605f330b17d5aba355662312d12fda4ec43a518ceb5f63",
    ("Qzeta8", 1, 2, 4): "f337c17f6e26788383baa2d835658555f2f4caafaada1473da927e9c79438508",
    ("QQ", 1, 2, 80): "c63d93253113b8ca2f9a88abcd2e958f84745904f15c2145ac7f2955ef1b9d8a",
    ("QQ", 1, 3, 12): "d5ef29a1be3dac820381660dd3abca83aa187c5f007126d819092a4b66d32a81",
    ("Qi", 2, 3, 4): "a778711975ac6c1c0b590c33eca6b4a409c386491cce10615065efcfc3cb8793",
}


@pytest.mark.parametrize("name,k,m,H", list(GOLDEN_DUMPS))
def test_module_dump_golden(name, k, m, H, request):
    field = request.getfixturevalue(name)
    dump = dump_module_lines(enumerate_primitive_modules(field, k, m, H))
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_DUMPS[name, k, m, H]


# -- module sets: the columns against one object per key ---------------------------

MODULE_SET_CASES = [("QQ", 1, 2, 30), ("Qi", 1, 2, 8), ("Qs5", 1, 2, 6), ("Qzeta8", 1, 2, 3),
                    ("QQ", 2, 3, 6), ("Qi", 2, 3, 4), ("Qi", 2, 2, 1)]


def _module_rows(mods):
    return [(P.key(), P.height_sq, P.denominator, P.height) for P in mods]


@pytest.mark.parametrize("name,k,m,H", MODULE_SET_CASES)
def test_module_set_matches_object_reference(name, k, m, H, request):
    # the set's order, height cut and float heights against one object per
    # key sorted on PrimitiveModule._order and cut by PowerProduct comparison
    field = request.getfixturevalue(name)
    got = enumerate_primitive_modules(field, k, m, H)
    want = modules_reference(field, k, m, H)
    assert isinstance(got, modules.ModuleSet) and len(got) == len(want) > 0
    assert _module_rows(got) == _module_rows(want)
    assert got.hsq.tolist() == [float(P.height_sq) for P in want]
    assert got.heights.tolist() == [P.height for P in want]


def test_height_cut_keeps_an_attained_bound(QQ):
    # the line through (3, 4) has H = 5 exactly: cutoff 5 keeps it and the
    # exact comparison decides it; cutoff 49/10 drops it
    line = to_echelon(QQ, [[3, 4]]).key()
    calls = []
    height_sq_at = modules.ModuleSet.height_sq_at

    def spy(self, i):
        calls.append(i)
        return height_sq_at(self, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules.ModuleSet, "height_sq_at", spy)
        kept = enumerate_primitive_modules(QQ, 1, 2, 5)
    assert calls and line in [P.key() for P in kept]
    dropped = enumerate_primitive_modules(QQ, 1, 2, Fraction(49, 10))
    assert line not in [P.key() for P in dropped]
    for bound, got in ((5, kept), (Fraction(49, 10), dropped)):
        assert _module_rows(got) == _module_rows(modules_reference(QQ, 1, 2, bound))


@pytest.mark.parametrize("H", [4, 6])
def test_height_cut_at_an_irrational_height(Qs5, H):
    # Q(sqrt 5) has the irrational scale 5^(-1/2): with the float of an
    # attained irrational H as the cutoff, which differs from H, the exact
    # comparison decides each module of that height
    mods = enumerate_primitive_modules(Qs5, 1, 2, H)
    P = [P for P in mods if Fraction(P.height) ** 2 != P.height_sq][-1]
    bound = Fraction(P.height)
    got = enumerate_primitive_modules(Qs5, 1, 2, bound)
    assert (P.key() in [Q.key() for Q in got]) == (P.height_sq <= bound ** 2)
    assert _module_rows(got) == _module_rows(modules_reference(Qs5, 1, 2, bound))


def test_module_set_is_a_sequence(QQ):
    # entries are built once and kept; a slice is a module set of the same entries
    mods = enumerate_primitive_modules(QQ, 1, 2, 6)
    assert mods[0] is mods[0] and mods[-1] is mods[len(mods) - 1]
    assert list(mods) == [mods[i] for i in range(len(mods))]
    part = mods[2:9:3]
    assert isinstance(part, modules.ModuleSet) and len(part) == 3
    assert _module_rows(part) == _module_rows(list(mods)[2:9:3])
    with pytest.raises(IndexError):
        mods[len(mods)]
    empty = span_modules(okn_lattice(QQ, 2), 1, Fraction(1, 2))
    assert len(empty) == 0 and list(empty) == [] and dump_module_lines(empty) == ""


# -- the module search: one integer echelon pass per block of k-tuples ----------

FIELD_NAMES = ["QQ", "Qi", "Qs5", "Qzeta9p", "Qzeta8"]


def _check_tuple_echelons(field, k, data, max_vectors):
    # the batched fraction-free keys of k-tuples of candidates against the
    # rational RREF of each tuple's Phi rows, on int64 rows and on rows scaled
    # by 2**40 past the int64 guard; integer multiples of a vector must
    # dedupe to its one line, dependent tuples must drop out, and known keys
    # must be skipped
    m = data.draw(st.integers(k, 3))
    r = m * field.degree
    vecs = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r)
                              .filter(any), min_size=1, max_size=max_vectors))
    vecs += [[c * x for x in v] for v in vecs for c in (-2, 3)]
    # _candidates keeps the sign whose first nonzero entry is negative
    vecs = [v if next(x for x in v if x) < 0 else [-x for x in v] for v in vecs]
    okm = okn_lattice(field, m)
    arr = np.array(vecs, dtype=np.int64)
    for rows in (arr, arr.astype(object) * 2 ** 40):
        phi = _candidates(okm, rows)[1]
        tuples = np.array(list(itertools.combinations(range(len(phi)), k)), dtype=np.int64)
        batch = phi[tuples].reshape(len(tuples), k * field.degree, phi.shape[2])
        want = {}
        for mat in batch.tolist():
            D = echelon_rref(field, mat)
            if D.k == k:
                want.setdefault(D.key(), D.pivot_cols)
        got = _echelon_keys(field, batch, k)
        assert {D.key(): D.pivot_cols
                for D in (_echelon_matrix(field, k, key) for key in got)} == want
        assert len(got) == len(want)
        assert _echelon_keys(field, batch, k, got) == []


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_echelons_match_rref(name, data, QQ, Qi, Qs5, Qzeta9p, Qzeta8):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5, "Qzeta9p": Qzeta9p, "Qzeta8": Qzeta8}[name]
    _check_tuple_echelons(field, 1, data, max_vectors=6)


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_plane_echelons_match_rref(name, data, QQ, Qi, Qs5, Qzeta9p, Qzeta8):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5, "Qzeta9p": Qzeta9p, "Qzeta8": Qzeta8}[name]
    _check_tuple_echelons(field, 2, data, max_vectors=3)


@pytest.mark.parametrize("name,m", [("QQ", 2), ("QQ", 3), ("Qi", 2), ("Qs5", 2)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_span_modules_k1_matches_loop(name, m, data, QQ, Qi, Qs5):
    # the integer key pass against one RREF per candidate, at random radii and
    # with a finite bound on the candidate norms
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    okm = okn_lattice(field, m)
    radius = Fraction(data.draw(st.integers(2, 16 if m == 2 else 10)), 4)
    prod_bound = data.draw(st.one_of(st.just(math.inf),
                                     st.floats(0.1, float(radius) ** field.degree)))
    got = span_modules(okm, 1, radius, prod_bound=prod_bound)
    want = span_modules_loop(okm, 1, radius, prod_bound=prod_bound)
    assert dump_module_lines(got) == dump_module_lines(want)
    assert [P.height_sq for P in got] == [P.height_sq for P in want]
    assert [P.key() for P in got] == [P.key() for P in want]


@pytest.mark.parametrize("name,m,k,radius", [("QQ", 2, 1, 6), ("Qi", 2, 1, 3), ("Qs5", 2, 1, 3),
                                             ("QQ", 3, 2, 2), ("QQ", 4, 2, Fraction(3, 2)),
                                             ("Qi", 3, 2, 1)])
def test_span_modules_order_matches_loop(name, m, k, radius, request):
    # the modules and their order, ties in H included, against one lambda_of
    # per key sorted on the Fraction keys
    okm = okn_lattice(request.getfixturevalue(name), m)
    got, want = span_modules(okm, k, radius), span_modules_loop(okm, k, radius)
    assert len({P.height for P in got}) < len(got)
    assert [(P.key(), P.height_sq, P.denominator) for P in got] == \
        [(P.key(), P.height_sq, P.denominator) for P in want]


@pytest.mark.parametrize("name,m,radius", [("QQ", 2, 5), ("QQ", 3, 3), ("Qi", 2, 2),
                                           ("Qi", 3, Fraction(3, 2))])
def test_span_modules_k1_brute_force(name, m, radius, request):
    # every nonzero vector of a box around the ball, reduced over K one at a time
    field = request.getfixturevalue(name)
    okm = okn_lattice(field, m)
    found = {}
    for c in brute_force_short(okm, Fraction(radius) ** 2):
        if any(c):
            D = to_echelon(field, [okm.kvector_of_coords(c)])
            found.setdefault(D.key(), D)
    want = sorted((lambda_of(D) for D in found.values()), key=lambda P: (P.height, P.key()))
    assert dump_module_lines(span_modules(okm, 1, radius)) == dump_module_lines(want)


@pytest.mark.parametrize("name,m,radius", [("QQ", 3, 2), ("QQ", 4, Fraction(3, 2)),
                                           ("Qi", 3, Fraction(3, 2))])
def test_span_modules_k2_brute_force(name, m, radius, request):
    # the K-span of every independent pair of nonzero vectors of a box around
    # the ball, reduced over K one pair at a time
    field = request.getfixturevalue(name)
    okm = okn_lattice(field, m)
    vecs = [okm.kvector_of_coords(c) for c in brute_force_short(okm, Fraction(radius) ** 2)
            if any(c) and next(x for x in c if x) > 0]
    found = {}
    for v, w in itertools.combinations(vecs, 2):
        if rank_over_K([v, w]) == 2:
            D = to_echelon(field, [v, w])
            found.setdefault(D.key(), D)
    want = sorted((lambda_of(D) for D in found.values()), key=lambda P: (P.height, P.key()))
    assert dump_module_lines(span_modules(okm, 2, radius)) == dump_module_lines(want)


@pytest.mark.parametrize("name,m,k,radius", [("QQ", 3, 2, 2), ("Qi", 2, 1, 3),
                                             ("Qi", 2, 2, 2)])
def test_span_modules_in_small_blocks(name, m, k, radius, request, monkeypatch):
    # with blocks of 7 tuples, keys dedupe across blocks and only a search
    # with k d = rank stops at the first block that yields a span
    okm = okn_lattice(request.getfixturevalue(name), m)
    want = dump_module_lines(span_modules(okm, k, radius))
    monkeypatch.setattr(kernels, "_BLOCK", 7)
    assert dump_module_lines(span_modules(okm, k, radius)) == want


def _check_one_saturation_per_key_and_no_rref(okm, k, radius, monkeypatch):
    # the module data pass saturates every distinct key exactly once, in
    # one batched call
    calls, batches = [], []
    saturation_basis = intmat.saturation_basis

    def counted(qs, A):
        batches.append(len(qs))
        calls.extend((q, tuple(map(tuple, a)))
                     for q, a in zip(np.asarray(qs).tolist(), np.asarray(A).tolist()))
        return saturation_basis(qs, A)

    def no_rref(A):
        raise AssertionError("intmat.rref called by the module search")

    monkeypatch.setattr(intmat, "saturation_basis", counted)
    monkeypatch.setattr(intmat, "rref", no_rref)
    got = span_modules(okm, k, radius)
    assert len(calls) == len(set(calls)) == len(got) > 0 and batches == [len(got)]
    assert len({P.key() for P in got}) == len(got)


def test_span_modules_k1_one_lambda_per_key_and_no_rref(Qi, monkeypatch):
    _check_one_saturation_per_key_and_no_rref(okn_lattice(Qi, 2), 1, 3, monkeypatch)


@pytest.mark.parametrize("name,m,radius", [("QQ", 3, 2), ("Qi", 3, 1)])
def test_span_modules_k2_one_lambda_per_key_and_no_rref(name, m, radius, request,
                                                        monkeypatch):
    okm = okn_lattice(request.getfixturevalue(name), m)
    _check_one_saturation_per_key_and_no_rref(okm, 2, radius, monkeypatch)

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latrank import counting, kernels
from latrank import (
    ball,
    c1_estimate,
    enumerate_primitive_modules,
    koecher_identity_check,
    lhs_count,
    primitive_zeta_check,
    term_value,
    to_echelon,
    lambda_of,
    zeta,
)
from latrank.counting import (
    custom,
    pivot_product_integral,
    product_of_balls,
    ranks_over_K,
    term_value_detail,
)
from latrank.numfield import rank_over_K
from latrank.zlattice import okn_lattice, unit_ball_volume
from tests_support import from_integral_coords, k_rref, kmat_mul, term_value_detail_loop


class TestLhsCount:
    def test_column_count_T2(self, QQ):
        rep = lhs_count(QQ, 2, 1, 1, 2, ball(1), method="direct")
        assert rep.raw_sum == 12

    def test_zero_below_min_norm(self, QQ):
        rep = lhs_count(QQ, 3, 2, 2, 1, ball(1), method="direct")
        assert rep.raw_sum == 0

    def test_small_T_small_support(self, QQ):
        rep = lhs_count(QQ, 2, 1, 1, 1, ball(Fraction(1, 2)), method="direct")
        assert rep.raw_sum == 0

    def test_methods_agree_exactly(self, QQ):
        for k in (1, 2):
            for T in (2, 4):
                a = lhs_count(QQ, 3, 2, k, T, ball(1), method="direct")
                b = lhs_count(QQ, 3, 2, k, T, ball(1), method="stratified")
                assert a.raw_sum == b.raw_sum
                assert float(a.raw_sum).is_integer()

    def test_methods_agree_gaussian_field(self, Qi):
        a = lhs_count(Qi, 2, 1, 1, 1, ball(Fraction(3, 2)), method="direct")
        b = lhs_count(Qi, 2, 1, 1, 1, ball(Fraction(3, 2)), method="stratified")
        assert a.raw_sum == b.raw_sum > 0

    @pytest.mark.parametrize("name,f,T,count", [
        ("Qi", ball(1), 2, 1352),
        ("Qi", product_of_balls([1, Fraction(3, 2)]), 1, 180),
        ("Qs5", ball(Fraction(6, 5)), 1, 36),
        ("Qs5", product_of_balls([1, Fraction(1, 2)]), 1, 6),
        ("Qzeta9p", ball(1), 1, 12),
        ("Qzeta8", ball(1), 1, 48),
        ("Qzeta9p", ball(1), 2, 3412),
        ("Qzeta8", ball(1), Fraction(3, 2), 768),
        ("Qi", ball(1), Fraction(3, 2), 192),
    ])
    def test_methods_agree_quadratic_fields(self, name, f, T, count, request):
        # counts as the per-matrix rref over K gave them; in degrees 3 and 4, as
        # both methods give them
        field = request.getfixturevalue(name)
        a = lhs_count(field, 3, 2, 1, T, f, method="direct")
        b = lhs_count(field, 3, 2, 1, T, f, method="stratified")
        assert a.raw_sum == b.raw_sum == count

    def test_methods_agree_k2_of_3(self, QQ):
        # k = 2 of m = 3: the modules are the spans of pairs of rows of norm <= 3
        a = lhs_count(QQ, 4, 3, 2, 3, ball(1), method="direct")
        b = lhs_count(QQ, 4, 3, 2, 3, ball(1), method="stratified")
        assert a.raw_sum == b.raw_sum == 178128

    @pytest.mark.parametrize("n,m,T,count,seen", [
        (3, 2, 1, 0, 25),
        (4, 3, Fraction(3, 2), 576, 4063),
    ])
    def test_methods_agree_k2_gaussian(self, Qi, n, m, T, count, seen):
        # rank-2 matrices over Q(i), whose direct lattices have rank 12 and 16
        a = lhs_count(Qi, n, m, 2, T, ball(1), method="direct")
        b = lhs_count(Qi, n, m, 2, T, ball(1), method="stratified")
        assert a.raw_sum == b.raw_sum == count
        assert b.matrices_seen == seen

    @pytest.mark.parametrize("name,n,m,k,T,seen", [
        ("QQ", 3, 2, 1, 4, 864),
        ("QQ", 3, 2, 2, 4, 23793),
        ("Qi", 3, 2, 1, Fraction(5, 2), 4510),
        ("QQ", 4, 3, 2, 2, 8857),
    ])
    def test_stratified_matrices_seen(self, name, n, m, k, T, seen, request):
        # one ball per module spanned by k independent rows of norm <= T
        rep = lhs_count(request.getfixturevalue(name), n, m, k, T, ball(1),
                        method="stratified")
        assert rep.matrices_seen == seen

    def test_monotone_in_T(self, QQ):
        vals = [lhs_count(QQ, 3, 2, 1, T, ball(1)).raw_sum for T in (1, 2, 3, 4)]
        assert vals == sorted(vals)

    def test_window_validation(self, QQ):
        with pytest.raises(ValueError):
            lhs_count(QQ, 2, 2, 1, 2, ball(1))
        with pytest.raises(ValueError):
            lhs_count(QQ, 3, 2, 0, 2, ball(1))

    @pytest.mark.parametrize("make", [
        lambda r: ball(r),
        lambda r: product_of_balls(r, 2),
        lambda r: product_of_balls([1, r]),
        lambda r: custom(lambda M: 1.0, r),
    ])
    @pytest.mark.parametrize("radius", [-1, 0, Fraction(-1, 2)])
    def test_nonpositive_radius_rejected(self, make, radius):
        with pytest.raises(ValueError, match=f"radius must be positive, got {radius}"):
            make(radius)


class TestTermValue:
    def test_pivot_ball(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, 0]]))
        assert abs(term_value(P, 3, ball(1)) - 4 * math.pi / 3) < 1e-12

    def test_half_ball(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, Fraction(1, 2)]]))
        assert abs(term_value(P, 3, ball(1)) - 5 ** -1.5 * 4 * math.pi / 3) < 1e-12

    def test_radius_scaling(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, 0]]))
        v1 = term_value(P, 3, ball(1))
        v2 = term_value(P, 3, ball(2))
        assert abs(v2 - v1 * 2 ** 3) < 1e-10

    def test_mc_matches_pivot_closed_form(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, 0]]))
        f = product_of_balls(1, 2)
        tv = term_value_detail(P, 2, f, mc_samples=60000, seed=12)
        cf = pivot_product_integral(P, 2, f)
        assert abs(tv.value - cf) <= 3 * tv.stderr

    def test_mc_matches_max_column_closed_form(self, QQ):
        # independent reduction for K = Q, k = 1: columns x*d_j constrain
        # ||x|| <= R / max |d_j|
        D = to_echelon(QQ, [[1, Fraction(3, 2)]])
        P = lambda_of(D)
        f = product_of_balls(1, 2)
        tv = term_value_detail(P, 3, f, mc_samples=80000, seed=13)
        cf = float(P.height_sq) ** (-1.5) * unit_ball_volume(3) * \
            float(P.denominator) ** 3 / float(Fraction(3, 2)) ** 3
        # D(D)^(-n) Int f(xD) dx = D^-n V(3) (R/max)^3 over x in R^3
        cf = unit_ball_volume(3) * (1 / 1.5) ** 3 / P.denominator ** 3
        assert abs(tv.value - cf) <= 3 * tv.stderr + 1e-12

    def test_mc_requires_samples(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, 0]]))
        with pytest.raises(ValueError):
            term_value(P, 2, product_of_balls(1, 2), mc_samples=0)

    def test_mc_deterministic_per_seed(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, Fraction(1, 2)]]))
        f = product_of_balls(1, 2)
        a = term_value(P, 3, f, mc_samples=2000, seed=5)
        b = term_value(P, 3, f, mc_samples=2000, seed=5)
        assert a == b


class TestC1Estimate:
    def test_cutoff_one(self, QQ):
        est = c1_estimate(QQ, 3, 2, 1, ball(1), 1)
        assert est.term_count == 2
        assert abs(est.partial_sum - 2 * 4 * math.pi / 3) < 1e-12

    def test_monotone_in_cutoff(self, QQ):
        a = c1_estimate(QQ, 3, 2, 1, ball(1), 5).partial_sum
        b = c1_estimate(QQ, 3, 2, 1, ball(1), 10).partial_sum
        assert b >= a

    def test_primitive_zeta_oracle(self, QQ):
        # c1 = V(3) * sum over primitive pairs ||v||^-3, cross-checked via the
        # zeta-normalized full lattice sum
        cutoff = 50
        est = c1_estimate(QQ, 3, 2, 1, ball(1), cutoff)
        pts = []
        C = cutoff
        acc = 0.0
        for a in range(-C, C + 1):
            for b in range(-C, C + 1):
                q = a * a + b * b
                if 0 < q <= C * C and math.gcd(abs(a), abs(b)) == 1:
                    acc += q ** -1.5
        expect = unit_ball_volume(3) * acc / 2
        assert abs(est.partial_sum - expect) < 1e-9

    def test_tail_is_heuristic_and_positive(self, QQ):
        est = c1_estimate(QQ, 3, 2, 1, ball(1), 40)
        assert est.tail_estimate > 0
        # the tail estimate should approximate the missing mass within 3x
        full = c1_estimate(QQ, 3, 2, 1, ball(1), 120).partial_sum
        missing = full - est.partial_sum
        assert missing / 3 < est.tail_estimate < missing * 3 + 0.2

    def test_k2_is_single_term(self, QQ):
        est = c1_estimate(QQ, 3, 2, 2, ball(1), 100)
        assert est.term_count == 1
        assert abs(est.partial_sum - unit_ball_volume(6)) < 1e-12


class TestZeta:
    def test_even_values(self):
        assert abs(zeta(2) - math.pi ** 2 / 6) < 1e-12
        assert abs(zeta(4) - math.pi ** 4 / 90) < 1e-12

    def test_zeta3(self):
        assert abs(zeta(3) - 1.2020569031595943) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1)


class TestPrimitiveZeta:
    def test_n4_m2(self):
        lhs, rhs, rel = primitive_zeta_check(4, 2, 100)
        assert rel < 1e-3

    def test_cutoff_one_bookkeeping(self):
        lhs, rhs, rel = primitive_zeta_check(4, 2, 1)
        assert rhs == 4.0
        assert abs(lhs - 4 * zeta(4)) < 1e-12

    def test_m1_matches_partial_zeta(self):
        lhs, rhs, rel = primitive_zeta_check(3, 1, 50)
        assert abs(lhs - 2 * zeta(3)) < 1e-12
        assert abs(rhs - 2 * sum(a ** -3.0 for a in range(1, 51))) < 1e-12

    @pytest.mark.parametrize("m, cutoff", [(2, 0), (2, 0.5), (2, -3), (2, math.inf),
                                           (2, math.nan), (0, 5)])
    def test_rejects_empty_sums(self, m, cutoff):
        # a cutoff below 1 or m = 0 leaves no vector to sum over
        with pytest.raises(ValueError, match="need n > m >= 1|cutoff must be finite"):
            primitive_zeta_check(3, m, cutoff)

    def test_mobius_oracle(self):
        # sum over all = zeta * sum over primitive, both summed far enough
        # that truncation is negligible at this tolerance
        lhs, rhs, rel = primitive_zeta_check(5, 2, 60)
        assert rel < 2e-4


class TestKoecher:
    def test_n4_m2(self, QQ):
        series, zside, rel = koecher_identity_check(QQ, 4, 2, 100)
        assert rel < 1e-3

    def test_m1_term_bijection(self, QQ):
        # for m = 1 the only module is O_K itself and the lattice sum
        # decomposes over multiples of the unit
        series, zside, rel = koecher_identity_check(QQ, 3, 1, 100)
        assert abs(series - unit_ball_volume(3)) < 1e-12
        partial = sum(a ** -3.0 for a in range(1, 101))
        assert abs(zside - unit_ball_volume(3) * partial / zeta(3)) < 1e-12
        assert rel < 1e-4

    def test_small_cutoff_flags_truncation_gap(self, QQ):
        series, zside, rel = koecher_identity_check(QQ, 4, 2, 1)
        assert abs(series - 2 * unit_ball_volume(4)) < 1e-12
        # the zeta side is far from the series at this cutoff: pure truncation
        assert rel > 0.01


class TestConvergenceTrend:
    def test_normalized_counts_converge(self, QQ):
        c1 = c1_estimate(QQ, 3, 2, 1, ball(1), 120).partial_sum
        errs = []
        for T in (5, 10, 20):
            rep = lhs_count(QQ, 3, 2, 1, T, ball(1))
            errs.append(abs(rep.normalized - c1))
        assert errs[2] < errs[0]
        assert errs[2] < errs[1] + 0.05 * c1


class TestCustomEvaluator:
    def test_custom_matches_indicator(self, QQ):
        f_ind = ball(1)
        f_c = custom(lambda M: 1.0 if float((M * M).sum()) <= 1.0 else 0.0,
                     support_radius=1.0)
        a = lhs_count(QQ, 2, 1, 1, 3, f_ind, method="direct")
        b = lhs_count(QQ, 2, 1, 1, 3, f_c, method="direct")
        assert a.raw_sum == b.raw_sum

    @pytest.mark.parametrize("name", ["QQ", "Qi"])
    def test_custom_matches_indicator_stratified(self, name, request):
        # over Q(i) the embedding is a float isometry, so lattice points on
        # the sphere land within rounding of it; their squared norms are
        # integers, so the slack admits no point outside the ball
        field = request.getfixturevalue(name)
        f_c = custom(lambda M: 1.0 if float((M * M).sum()) <= 1.0 + 1e-9 else 0.0,
                     support_radius=1.0)
        a = lhs_count(field, 3, 2, 1, 2, ball(1), method="stratified")
        b = lhs_count(field, 3, 2, 1, 2, f_c, method="stratified")
        assert a.raw_sum == b.raw_sum > 0


class TestProductOfBallsBroadcast:
    """product_of_balls(r) puts the one radius r on every column."""

    def test_count_matches_explicit_radii_and_brute_force(self, QQ):
        # 3 x 2 integer matrices of rank 1 with both column norms <= 2
        cols = [v for v in itertools.product(range(-2, 3), repeat=3)
                if sum(x * x for x in v) <= 4]
        brute = sum(1 for u, v in itertools.product(cols, repeat=2)
                    if (any(u) or any(v)) and
                    all(u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(3)))
        assert brute == 152
        for method in ("direct", "stratified"):
            a = lhs_count(QQ, 3, 2, 1, 2, product_of_balls(1), method=method)
            b = lhs_count(QQ, 3, 2, 1, 2, product_of_balls(1, 2), method=method)
            assert a.raw_sum == b.raw_sum == brute

    def test_term_matches_explicit_radii(self, QQ):
        P = list(enumerate_primitive_modules(QQ, 1, 2, 3))[2]
        a = term_value_detail(P, 3, product_of_balls(1), mc_samples=20000, seed=1)
        b = term_value_detail(P, 3, product_of_balls(1, 2), mc_samples=20000, seed=1)
        assert (a.value, a.stderr) == (b.value, b.stderr)


class TestUnsupportedTestFunctions:
    def test_ball_has_no_column_radii(self):
        with pytest.raises(ValueError, match="per-column radii"):
            ball(1).column_radii(2)


# -- the batched rank over K against the per-matrix rref ------------------------------


def _element(field, coords):
    return from_integral_coords(field, coords)


# largest T per field at which the direct enumeration stays small
_DIRECT_T_MAX = {"QQ": Fraction(9, 2), "Qi": Fraction(2), "Qs5": Fraction(2)}


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_direct_equals_stratified_property(name, data, QQ, Qi, Qs5):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    n, m = data.draw(st.sampled_from([(2, 1), (3, 2)]))
    k = data.draw(st.integers(1, m))
    den = data.draw(st.integers(1, 4))
    num = data.draw(st.integers(den, int(_DIRECT_T_MAX[name] * den)))
    T = Fraction(num, den)
    g = ball(data.draw(st.sampled_from([Fraction(1), Fraction(6, 5)])))
    a = lhs_count(field, n, m, k, T, g, method="direct")
    b = lhs_count(field, n, m, k, T, g, method="stratified")
    assert a.raw_sum == b.raw_sum


@st.composite
def _kmatrix_batches(draw, field):
    """Batches of n x c matrices over O_K, each a product X D of inner size j."""
    d = field.degree
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ints = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    batch = []
    for _ in range(draw(st.integers(0, 5))):
        j = draw(st.integers(0, min(n, c)))
        if j == 0:
            batch.append([[field.zero()] * c for _ in range(n)])
            continue
        X = [[_element(field, draw(ints)) for _ in range(j)] for _ in range(n)]
        D = [[_element(field, draw(ints)) for _ in range(c)] for _ in range(j)]
        batch.append(kmat_mul(X, D))
    return n, c, batch


def _batch_coords(field, n, c, batch, scale):
    """(N, n, c d) integral-basis coordinates of the batch, times scale."""
    flat = [[[scale * v for x in row for v in field.integral_coords(x)] for row in A]
            for A in batch]
    dtype = object if scale > 2 ** 40 else np.int64
    return np.array(flat, dtype=dtype).reshape(len(batch), n, c * field.degree)


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ranks_over_K_match_rref(name, data, QQ, Qi, Qs5):
    # scales past the int64 guard take the bigint Bareiss path (10**7) and the
    # object-array transform (10**20); scaling keeps every rank
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    n, c, batch = data.draw(_kmatrix_batches(field))
    scale = data.draw(st.sampled_from([1, 10 ** 7, 10 ** 20]))
    coords = _batch_coords(field, n, c, batch, scale)
    got = ranks_over_K(field, coords, okn_lattice(field, c).basis)
    assert got.shape == (len(batch),)
    assert list(got) == [k_rref(A)[2] for A in batch]


def test_ranks_over_K_chunks(Qs5, monkeypatch):
    # a batch that crosses several _BLOCK pieces, half-integral basis
    rng = np.random.default_rng(4)
    batch = []
    for _ in range(60):
        j = int(rng.integers(0, 3))
        X = [[_element(Qs5, rng.integers(-4, 5, 2)) for _ in range(j)] for _ in range(3)]
        D = [[_element(Qs5, rng.integers(-4, 5, 2)) for _ in range(2)] for _ in range(j)]
        batch.append(kmat_mul(X, D) if j else [[Qs5.zero()] * 2 for _ in range(3)])
    coords = _batch_coords(Qs5, 3, 2, batch, 1)
    basis = okn_lattice(Qs5, 2).basis
    monkeypatch.setattr(kernels, "_BLOCK", 16)
    got = ranks_over_K(Qs5, coords, basis)
    assert list(got) == [k_rref(A)[2] for A in batch]
    assert set(got) == {0, 1, 2}
    assert ranks_over_K(Qs5, coords[:0], basis).shape == (0,)


# -- Monte Carlo product-of-balls decisions against the reference loop ----------------


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mc_product_of_balls_matches_reference_loop(name, data, QQ, Qi, Qs5):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    m = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, m))
    n = data.draw(st.integers(2, 4))
    ints = st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree)
    rows = [[_element(field, data.draw(ints)) for _ in range(m)] for _ in range(k)]
    assume(rank_over_K(rows) == k)
    P = lambda_of(to_echelon(field, rows))
    radii = data.draw(st.lists(st.integers(1, 40), min_size=m, max_size=m, unique=True))
    f = product_of_balls([Fraction(r, 20) for r in radii])
    samples = data.draw(st.integers(1, 5000))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    tv = term_value_detail(P, n, f, mc_samples=samples, seed=seed)
    assert (tv.value, tv.stderr) == term_value_detail_loop(P, n, f, samples, seed=seed)


@pytest.mark.parametrize("n,m,d,k", [(3, 2, 1, 1), (3, 2, 1, 2), (2, 2, 2, 1),
                                     (4, 3, 2, 2), (3, 3, 1, 3)])
def test_inside_product_of_balls_at_the_boundary(n, m, d, k):
    # each sample alone, with one column radius exactly at the sample's
    # reference value and one ulp to either side; the other columns sit
    # exactly on their boundary too, which counts as inside
    rng = np.random.default_rng(n * 100 + m * 10 + d + k)
    q, _ = np.linalg.qr(rng.standard_normal((m * d, k * d)))
    pts = rng.uniform(-1.5, 1.5, size=(60, n, k * d))
    colsq = counting._column_sq_norms(pts, q, d, m)
    for s in range(len(pts)):
        for j in range(m):
            for t in (colsq[s, j], np.nextafter(colsq[s, j], -np.inf),
                      np.nextafter(colsq[s, j], np.inf)):
                radii_sq = colsq[s].copy()
                radii_sq[j] = t
                got = counting._inside_product_of_balls(pts[s:s + 1], q, radii_sq, d)
                assert got.tolist() == [bool(colsq[s, j] <= t)]
        # the whole batch with this sample exactly on every boundary
        got = counting._inside_product_of_balls(pts, q, colsq[s], d)
        assert got.tolist() == np.all(colsq <= colsq[s], axis=1).tolist()


def test_inside_product_of_balls_exact_points():
    # a coordinate frame and dyadic points: column sums are exact, so the
    # boundary is exactly at 1/2 and 5/16
    q = np.eye(2)
    pts = np.array([[[0.5, 0.25], [0.5, 0.5]],
                    [[0.5, 0.25], [-0.5, -0.5]],
                    [[-0.5, 0.0], [0.5, 0.5]]])
    for t0, inside0 in ((0.5, True), (np.nextafter(0.5, 0), False),
                        (np.nextafter(0.5, 1), True)):
        for t1, inside1 in ((0.3125, True), (np.nextafter(0.3125, 0), False),
                            (np.nextafter(0.3125, 1), True)):
            got = counting._inside_product_of_balls(pts, q, np.array([t0, t1]), 1)
            # the third sample has column sums (1/2, 1/4)
            assert got.tolist() == [inside0 and inside1] * 2 + [inside0]


def test_mc_reference_path_alone_gives_the_same_estimate(QQ, Qi, monkeypatch):
    # an infinite margin sends every sample through the reference expression
    cases = [(lambda_of(to_echelon(QQ, [[1, Fraction(3, 2), Fraction(-1, 3)]])), 4),
             (lambda_of(to_echelon(Qi, [[Qi.one(), Qi.element([1, 1])]])), 3)]
    monkeypatch.setattr(counting, "_decision_window", lambda pts, q, radii_sq, d: (
        [-math.inf] * len(radii_sq), [math.inf] * len(radii_sq)))
    for P, n in cases:
        f = product_of_balls([Fraction(6, 5), Fraction(1), Fraction(7, 5)][:P.echelon.m])
        for seed in (3, 29):
            tv = term_value_detail(P, n, f, mc_samples=3000, seed=seed)
            assert (tv.value, tv.stderr) == term_value_detail_loop(P, n, f, 3000, seed=seed)

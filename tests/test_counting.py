import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latrank import counting, kernels, zlattice
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
    Ball,
    TestFunction,
    custom,
    product_of_balls,
    ranks_over_K,
    term_value_detail,
)
from latrank.errors import ValidationError
from latrank.exactval import PowerProduct
from latrank.modules import span_modules
from latrank.numfield import rank_over_K
from latrank.zlattice import okn_lattice, short_vectors, unit_ball_volume
from tests_support import (
    ball_tuples,
    from_integral_coords,
    k_rref,
    kmat_mul,
    lhs_direct_enumerated,
    lhs_k1_oracle_Q,
    lhs_stratified_enumerated,
    modules_reference,
    pivot_product_integral,
    similarity_radius_sq_loop,
    term_value_detail_loop,
)


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
        ("Qzeta9p", product_of_balls([1, Fraction(3, 2)]), 1, 278),
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
        tv = counting._mc_term(f, P, 2, 60000, 12)
        cf = pivot_product_integral(P, 2, f)
        assert abs(tv.value - cf) <= 3 * tv.stderr
        assert term_value(P, 2, f) == pytest.approx(cf, rel=1e-12)

    def test_mc_matches_max_column_closed_form(self, QQ):
        # independent reduction for K = Q, k = 1: columns x*d_j constrain
        # ||x|| <= R / max |d_j|
        D = to_echelon(QQ, [[1, Fraction(3, 2)]])
        P = lambda_of(D)
        f = product_of_balls(1, 2)
        tv = counting._mc_term(f, P, 3, 80000, 13)
        cf = float(P.height_sq) ** (-1.5) * unit_ball_volume(3) * \
            float(P.denominator) ** 3 / float(Fraction(3, 2)) ** 3
        # D(D)^(-n) Int f(xD) dx = D^-n V(3) (R/max)^3 over x in R^3
        cf = unit_ball_volume(3) * (1 / 1.5) ** 3 / P.denominator ** 3
        assert abs(tv.value - cf) <= 3 * tv.stderr + 1e-12
        assert term_value(P, 3, f) == pytest.approx(cf, rel=1e-12)

    def test_mc_requires_samples(self, QQ):
        # a plane of Q^3 has no closed form: its column blocks are 1 x 2
        P = lambda_of(to_echelon(QQ, [[1, 0, 1], [0, 1, 2]]))
        f = product_of_balls(1, 3)
        with pytest.raises(ValidationError, match="--mc-samples"):
            term_value(P, 4, f, mc_samples=0)
        with pytest.raises(ValidationError, match="--mc-samples"):
            counting._mc_term(f, P, 4, 0, 1)

    def test_mc_deterministic_per_seed(self, QQ):
        P = lambda_of(to_echelon(QQ, [[1, Fraction(1, 2)]]))
        f = product_of_balls(1, 2)
        a = counting._mc_term(f, P, 3, 2000, 5)
        b = counting._mc_term(f, P, 3, 2000, 5)
        assert a == b and a.stderr > 0


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

    @pytest.mark.parametrize("name,n,k,m,H,radius", [
        ("QQ", 3, 1, 2, 80, 1), ("QQ", 4, 1, 2, 30, Fraction(3, 2)), ("Qi", 3, 1, 2, 20, 1),
        ("Qs5", 3, 1, 2, 6, Fraction(6, 5)), ("Qzeta8", 3, 1, 2, 3, 1),
        ("QQ", 4, 2, 3, 6, 1), ("Qi", 4, 2, 3, 4, 1), ("QQ", 3, 2, 2, 5, 1)])
    def test_ball_terms_match_object_reference(self, name, n, k, m, H, radius, request):
        # the ball terms from the module set's float H^2, summed in module
        # order, against term_value_detail on each module of the per-object
        # path, bit for bit
        field = request.getfixturevalue(name)
        f = ball(radius)
        est = c1_estimate(field, n, m, k, f, H)
        total, terms = 0.0, []
        for P in modules_reference(field, k, m, H):
            value = term_value_detail(P, n, f).value
            total += value
            terms.append((P.height, P.denominator, value))
        assert est.partial_sum == total and est.terms == terms and est.mc_stderr == 0.0

    @pytest.mark.parametrize("n,m,cutoff", [(3, 2, 40), (4, 2, 60), (5, 3, 8)])
    def test_koecher_series_matches_object_reference(self, QQ, n, m, cutoff):
        series = koecher_identity_check(QQ, n, m, cutoff)[0]
        assert series == sum(term_value(P, n, ball(1)) for P in modules_reference(QQ, 1, m, cutoff))


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
        a = counting._mc_term(product_of_balls(1), P, 3, 20000, 1)
        b = counting._mc_term(product_of_balls(1, 2), P, 3, 20000, 1)
        assert (a.value, a.stderr) == (b.value, b.stderr)
        assert term_value(P, 3, product_of_balls(1)) == term_value(P, 3, product_of_balls(1, 2))


class TestUnsupportedTestFunctions:
    def test_ball_has_no_column_radii(self):
        with pytest.raises(ValueError, match="per-column radii"):
            ball(1).column_radii(2)


# -- the batched rank over K against the per-matrix rref ------------------------------


def _element(field, coords):
    return from_integral_coords(field, coords)


# largest T per field at which the direct enumeration stays small
_DIRECT_T_MAX = {"QQ": Fraction(9, 2), "Qi": Fraction(2), "Qs5": Fraction(2),
                 "Qzeta8": Fraction(3, 2)}


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5", "Qzeta8"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_direct_equals_stratified_property(name, data, QQ, Qi, Qs5, Qzeta8):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5, "Qzeta8": Qzeta8}[name]
    n, m = data.draw(st.sampled_from([(2, 1), (3, 2)]))
    k = data.draw(st.integers(1, m))
    den = data.draw(st.integers(1, 4))
    num = data.draw(st.integers(den, int(_DIRECT_T_MAX[name] * den)))
    T = Fraction(num, den)
    g = ball(data.draw(st.sampled_from([Fraction(1), Fraction(6, 5)])))
    a = lhs_count(field, n, m, k, T, g, method="direct")
    b = lhs_count(field, n, m, k, T, g, method="stratified")
    assert a.raw_sum == b.raw_sum
    # both methods run the one theta recursion for a ball: compare each with
    # its enumeration, which ranks every matrix
    assert (a.raw_sum, a.matrices_seen) == lhs_direct_enumerated(field, n, m, k, T, g)
    assert (b.raw_sum, b.matrices_seen) == lhs_stratified_enumerated(field, n, m, k, T, g)


def _spy_module_sums(monkeypatch):
    """The modules lhs_count hands to modules_sum, in its outermost calls."""
    modules, depth = [], [0]
    for cls in (TestFunction, Ball):
        def spy(self, mods, *args, _orig=cls.modules_sum):
            if not depth[0]:
                modules.extend(mods)
            depth[0] += 1
            try:
                return _orig(self, mods, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "modules_sum", spy)
    return modules


@pytest.mark.parametrize("name,n,m,k,T,g", [
    ("QQ", 3, 2, 2, 3, ball(1)),
    ("QQ", 3, 2, 1, 2, product_of_balls(1)),
    ("QQ", 2, 1, 1, 3, ball(1)),
    ("Qi", 3, 2, 2, Fraction(3, 2), ball(1)),
    ("Qi", 3, 2, 1, 1, product_of_balls(1)),
    ("Qi", 2, 1, 1, Fraction(3, 2), ball(1)),
])
def test_direct_count_is_one_module_sum(name, n, m, k, T, g, request, monkeypatch):
    # the direct count sums over the one rank-m module, O_K^m itself
    field = request.getfixturevalue(name)
    modules = _spy_module_sums(monkeypatch)
    lhs_count(field, n, m, k, T, g, method="direct")
    (P,) = modules
    assert (P.k, P.m) == (m, m) and P.pivot_cols == tuple(range(m))
    assert P.lattice.basis == okn_lattice(field, m).basis


@pytest.mark.parametrize("name,n,T", [
    ("QQ", 2, 5), ("QQ", 3, 5), ("Qi", 2, Fraction(5, 2)), ("Qi", 3, 2),
    ("Qs5", 2, Fraction(5, 2)), ("Qs5", 3, 2),
])
def test_direct_rank_one_count_equals_enumeration(name, n, T, request):
    # at m = 1 both methods count O_K from its theta series; the enumerated
    # reference ranks every matrix of O_K^n
    field = request.getfixturevalue(name)
    rep = lhs_count(field, n, 1, 1, T, ball(1), method="direct")
    assert (rep.raw_sum, rep.matrices_seen) == lhs_stratified_enumerated(field, n, 1, 1, T, ball(1))


@pytest.mark.parametrize("name,n,m,T,radius,raw,seen", [
    ("QQ", 3, 2, 4, 1, 22944, 23793),
    ("Qi", 3, 2, 2, 1, 8640, 9993),
    ("Qs5", 3, 2, 2, Fraction(6, 5), 38160, 40745),
    ("Qzeta9p", 3, 2, 2, 1, 12792, 16205),
    ("Qzeta8", 3, 2, Fraction(3, 2), 1, 384, 1153),
    ("QQ", 4, 3, 3, 1, 779328, 959801),
])
def test_rank_m_count_equals_enumeration(name, n, m, T, radius, raw, seen, request):
    # at k = m both methods count O_K^m from its theta series less the lower
    # ranks; the enumerated reference ranks every matrix of O_K^(nm)
    field = request.getfixturevalue(name)
    f = ball(radius)
    assert lhs_stratified_enumerated(field, n, m, m, T, f) == (raw, seen)
    for method in ("direct", "stratified"):
        rep = lhs_count(field, n, m, m, T, f, method=method)
        assert (rep.raw_sum, rep.matrices_seen) == (raw, seen)


@pytest.mark.parametrize("name,n,m,k,T,raw,seen_stratified,seen_direct", [
    ("QQ", 4, 3, 2, 3, 178128, 206989, 959801),
    ("QQ", 5, 3, 2, 2, 15840, 20545, 25961),
    ("QQ", 5, 4, 2, 2, 41600, 72002, 87481),
    ("QQ", 5, 4, 3, 2, 42240, 336480, 87481),
    ("Qi", 4, 3, 2, Fraction(3, 2), 576, 4063, 1153),
    ("Qs5", 4, 3, 2, Fraction(3, 2), 720, 6553, 1393),
])
def test_count_below_rank_m_equals_enumeration(name, n, m, k, T, raw, seen_stratified,
                                               seen_direct, request):
    # at 1 < k < m a rank-k module counts its theta count less its submodules'
    # full-rank counts, and O_K^m, in the direct count, sums its rank-k
    # submodules; the enumerated references rank every matrix
    field = request.getfixturevalue(name)
    f = ball(1)
    assert lhs_stratified_enumerated(field, n, m, k, T, f) == (raw, seen_stratified)
    assert lhs_direct_enumerated(field, n, m, k, T, f) == (raw, seen_direct)
    for method, seen in (("stratified", seen_stratified), ("direct", seen_direct)):
        rep = lhs_count(field, n, m, k, T, f, method=method)
        assert (rep.raw_sum, rep.matrices_seen) == (raw, seen)


@pytest.mark.parametrize("name,n,m,T", [
    ("QQ", 2, 1, 3), ("QQ", 3, 2, 3), ("QQ", 4, 3, 2),
    ("Qi", 3, 2, Fraction(3, 2)), ("Qi", 4, 3, Fraction(3, 2)), ("Qs5", 4, 3, Fraction(3, 2)),
])
def test_ball_counts_rank_no_matrix(name, n, m, T, request, monkeypatch):
    # every ball count, by either method and at every k, runs the theta
    # recursion: nothing calls the rank filter, and Ball keeps no enumeration
    field = request.getfixturevalue(name)
    want = {(k, "direct"): lhs_direct_enumerated(field, n, m, k, T, ball(1))
            for k in range(1, m + 1)}
    want.update({(k, "stratified"): lhs_stratified_enumerated(field, n, m, k, T, ball(1))
                 for k in range(1, m + 1)})

    def refuse(*args):
        raise AssertionError("a ball count ranked a matrix")

    monkeypatch.setattr(counting, "ranks_over_K", refuse)
    for (k, method), (raw, seen) in want.items():
        rep = lhs_count(field, n, m, k, T, ball(1), method=method)
        assert (rep.raw_sum, rep.matrices_seen) == (raw, seen)
    assert not {"rank_k_sum", "module_sum"} & set(vars(Ball))


def test_each_module_reaches_the_theta_tables_once(QQ, monkeypatch):
    # the recursion memoizes each submodule's count by echelon key, so no
    # module's theta count is built twice in one count
    keys, build = [], counting._ball_tuple_counts
    monkeypatch.setattr(counting, "_ball_tuple_counts",
                        lambda mods, *args: keys.extend(P._key for P in mods) or build(mods, *args))
    rep = lhs_count(QQ, 4, 3, 2, 3, ball(1), method="stratified")
    assert rep.raw_sum == 178128
    assert len(keys) == len(set(keys)) and {len(key) for key in keys} == {5, 9}


def test_rank_m_count_reach(QQ):
    # the values the enumeration of Z^6 gives at T = 10, 5,260,181 matrices
    rep = lhs_count(QQ, 3, 2, 2, 10, ball(1), method="direct")
    assert (rep.raw_sum, rep.matrices_seen) == (5245248, 5260181)


def test_rank_m_count_against_r2_convolution(QQ):
    # the points of Z^6 with norm <= 40^2, from r_2, the number of ways to
    # write an integer as a sum of two squares, convolved in Python ints
    X = 1600
    r2 = [0] * (X + 1)
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a * a + b * b <= X:
                r2[a * a + b * b] += 1
    r4 = [sum(r2[i] * r2[s - i] for i in range(s + 1)) for s in range(X + 1)]
    cum2 = list(itertools.accumulate(r2))
    points = sum(r4[s] * cum2[X - s] for s in range(X + 1))
    assert points == 21193962881
    # the rank-2 matrices are the nonzero ones less the 992,560 of rank 1
    # (test_theta_count_reach); an enumeration of Z^6 passes the row cap here
    for method in ("direct", "stratified"):
        rep = lhs_count(QQ, 3, 2, 2, 40, ball(1), method=method)
        assert (rep.raw_sum, rep.matrices_seen) == (points - 1 - 992560, points)
    # the direct rank-one count, O_K^2 summing its lines, sees the same points
    rep = lhs_count(QQ, 3, 2, 1, 40, ball(1), method="direct")
    assert (rep.raw_sum, rep.matrices_seen) == (992560, points)


# -- rank-one ball counts from the theta series of Lambda_D ---------------------------


# largest T per field at which enumerating every Lambda_D^n stays small
_THETA_T_MAX = {"QQ": Fraction(6), "Qi": Fraction(5, 2), "Qs5": Fraction(5, 2),
                "Qzeta8": Fraction(3, 2)}


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5", "Qzeta8"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_theta_count_equals_enumeration_property(name, data, QQ, Qi, Qs5, Qzeta8):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5, "Qzeta8": Qzeta8}[name]
    n, m = data.draw(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]))
    den = data.draw(st.integers(1, 4))
    num = data.draw(st.integers(den, int(_THETA_T_MAX[name] * den)))
    T = Fraction(num, den)
    g = ball(data.draw(st.sampled_from([Fraction(1), Fraction(6, 5)])))
    rep = lhs_count(field, n, m, 1, T, g, method="stratified")
    assert (rep.raw_sum, rep.matrices_seen) == lhs_stratified_enumerated(field, n, m, 1, T, g)


@pytest.mark.parametrize("name,T,raw,seen", [
    ("Qzeta9p", 2, 3412, 3492),             # irrational scale_sq 3^(2/3) / 9
    ("Qzeta8", Fraction(3, 2), 768, 778),
    ("QQ", 5, 1752, 1776),                   # (3, 4) on the sphere of radius 5
])
def test_theta_count_equals_enumeration(name, T, raw, seen, request):
    field = request.getfixturevalue(name)
    rep = lhs_count(field, 3, 2, 1, T, ball(1), method="stratified")
    assert (rep.raw_sum, rep.matrices_seen) == (raw, seen)
    assert lhs_stratified_enumerated(field, 3, 2, 1, T, ball(1)) == (raw, seen)


def test_theta_count_reach(QQ):
    # the values the enumeration of every Lambda_D^3 gives
    rep = lhs_count(QQ, 3, 2, 1, 40, ball(1), method="stratified")
    assert (rep.raw_sum, rep.matrices_seen) == (992560, 994092)


@pytest.mark.parametrize("T", [20, 40, 200])
def test_theta_count_against_oracle(QQ, T):
    # the NumPy count from the primitive-norm histogram of Z^2 and the theta
    # series of Z^3, which shares no code with the library
    rep = lhs_count(QQ, 3, 2, 1, T, ball(1), method="stratified")
    assert (rep.raw_sum, rep.matrices_seen) == lhs_k1_oracle_Q(3, 2, T)


def test_oracle_pins():
    assert lhs_k1_oracle_Q(3, 2, 200) == (125570764, 125608944)
    assert lhs_k1_oracle_Q(3, 2, 1000) == (15731108588, 15732063476)


@pytest.mark.parametrize("name,T,radius,classes", [
    ("QQ", 6, 1, 2),
    ("Qi", Fraction(5, 2), 1, 2),
    ("Qs5", 2, Fraction(6, 5), 7),              # Gauss-reduced keys of several classes
    ("Qzeta8", Fraction(3, 2), 1, None),        # LLL-reduced keys
])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_tables_equal_per_module_reference(name, T, radius, classes, n, request,
                                                 monkeypatch):
    # one theta table per class key gives every module the count of its own
    # enumeration, for the rank-one modules of O_K^2 and O_K^3 and for O_K^2
    field = request.getfixturevalue(name)
    RT = Fraction(radius) * T
    modules = [*span_modules(okn_lattice(field, 2), 1, RT),
               *span_modules(okn_lattice(field, 3), 1, RT),
               *enumerate_primitive_modules(field, 2, 2, 1)]
    want = [ball_tuples(P.lattice, n, RT) for P in modules]
    builds = []
    monkeypatch.setattr(counting, "short_vectors",
                        lambda lat, r: builds.append(lat) or short_vectors(lat, r))
    assert counting._ball_tuple_counts(modules, n, RT) == want
    keys = {counting._class_key(P)[1] for P in modules}
    assert len(builds) == len(keys)
    if classes is not None:
        # the rank-one classes, and O_K^2 as a class of its own
        assert len(keys) == classes


_GL2_STEPS = {"swap": [[0, 1], [1, 0]], "negate": [[-1, 0], [0, 1]],
              "add": [[1, 1], [0, 1]], "subtract": [[1, -1], [0, 1]]}


@settings(max_examples=50, deadline=None)
@given(a=st.integers(1, 30), b=st.integers(-30, 30), c=st.integers(1, 30),
       steps=st.lists(st.sampled_from(sorted(_GL2_STEPS)), max_size=12))
def test_gauss_reduction_is_a_class_invariant(a, b, c, steps):
    # the reduced form of U G U^T, U a product of generators of GL_2(Z), is
    # that of G, and is reduced
    assume(a * c > b * b)
    U = np.identity(2, dtype=np.int64)
    for step in steps:
        U = np.array(_GL2_STEPS[step]) @ U
    (x, y), (_, z) = (U @ np.array([[a, b], [b, c]]) @ U.T).tolist()
    key = counting._gauss_reduced(a, b, c)
    assert counting._gauss_reduced(x, y, z) == key
    (a0, b0), (_, c0) = key
    assert 0 <= 2 * b0 <= a0 <= c0 and a0 * c0 - b0 * b0 == a * c - b * b


def test_theta_count_on_the_sphere(QQ):
    # Lambda_D = Z (3, 4) has norms 25 c^2; at T = 5 its tuples in the ball are
    # 0 and the 3 places x 2 signs of +-(3, 4), each with norms summing to X
    P = lambda_of(to_echelon(QQ, [[3, 4]]))
    assert zlattice._norm_bound(5, P.lattice.scale_sq, P.lattice.gram_den) == 25
    assert ball(1).modules_sum([P], 3, 1, Fraction(5), Fraction(5)) == (6, 7)


def test_ball_sums_stay_exact(QQ):
    # the sums are Python ints: past 2^53 a float sum would lose the + 1
    P = next(iter(span_modules(okn_lattice(QQ, 2), 1, 1)))
    raw, tuples = ball(1).modules_sum([P], 3, 1, Fraction(1), Fraction(1))
    assert type(raw) is int and type(tuples) is int
    assert 2 ** 60 + raw == 2 ** 60 + tuples - 1


def test_theta_count_on_python_ints(QQ, Qs5, monkeypatch):
    # the object-array path, which int_dtype picks past int64, counts the same
    want = [lhs_count(f, 4, 2, 1, T, ball(1), method="stratified") for f, T in ((QQ, 6), (Qs5, 2))]
    monkeypatch.setattr(kernels, "int_dtype", lambda bound: object)
    got = [lhs_count(f, 4, 2, 1, T, ball(1), method="stratified") for f, T in ((QQ, 6), (Qs5, 2))]
    assert [(r.raw_sum, r.matrices_seen) for r in got] == \
        [(r.raw_sum, r.matrices_seen) for r in want]


@pytest.mark.parametrize("block", [1, 1000, kernels._BLOCK])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_truncated_product_in_blocks(QQ, block, dtype, monkeypatch):
    # the product in blocks of av's degrees equals the whole outer product,
    # summed term by term in Python ints
    lat = okn_lattice(QQ, 2)
    norms, counts = np.unique(zlattice._int_norms(short_vectors(lat, 20), lat.gram_int),
                              return_counts=True)
    norms, counts = norms.astype(dtype), counts.astype(dtype)
    X = 500
    want = {}
    for a, ca in zip(norms.tolist(), counts.tolist()):
        for b, cb in zip(norms.tolist(), counts.tolist()):
            if a + b <= X:
                want[a + b] = want.get(a + b, 0) + ca * cb
    monkeypatch.setattr(kernels, "_BLOCK", block)
    deg, coef = counting._truncated_product(norms, counts, norms, counts, X)
    assert deg.dtype == coef.dtype == np.dtype(dtype)
    assert deg.tolist() == sorted(want)
    assert coef.tolist() == [want[s] for s in sorted(want)]


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5", "Qzeta9p", "Qzeta8"])
def test_norm_bound_against_power_products(name, request):
    # X is the largest integer with scale_sq X / gram_den <= R^2, by exact
    # PowerProduct comparisons on both sides
    field = request.getfixturevalue(name)
    for R in (Fraction(1), Fraction(6, 5), Fraction(3, 2), Fraction(5, 2)):
        for P in list(span_modules(okn_lattice(field, 2), 1, R))[:12]:
            lat = P.lattice
            X = zlattice._norm_bound(R, lat.scale_sq, lat.gram_den)
            r_sq = PowerProduct.coerce(R ** 2)
            if X > 0:
                assert lat.scale_sq * Fraction(X, lat.gram_den) <= r_sq
            assert lat.scale_sq * Fraction(X + 1, lat.gram_den) > r_sq
            # and it is the bound the exact filter of short_vectors applies
            coords = short_vectors(lat, R)
            q = [sum(a * g * b for a, row in zip(c, lat.gram_int) for g, b in zip(row, c))
                 for c in coords.tolist()]
            assert max(q) <= X


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


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_over_K_matches_rref(name, data, QQ, Qi, Qs5):
    # rank_over_K is ranks_over_K on a batch of one; entries with denominators
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    _, _, batch = data.draw(_kmatrix_batches(field))
    den = data.draw(st.integers(1, 6))
    batch = [[[x * Fraction(1, den) for x in row] for row in A] for A in batch]
    assert [rank_over_K(A) for A in batch] == [k_rref(A)[2] for A in batch]


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


# -- closed-form product-of-balls terms against the Monte Carlo estimator -------------


def test_similarity_radius_is_exact(QQ, Qs5):
    radii = (Fraction(6, 5), Fraction(1))
    # Z (2, -3): c_j = v_j^2 / |v|^2 = 4/13 and 9/13, so rho^2 = min(117/25, 13/9)
    P = lambda_of(to_echelon(QQ, [[1, Fraction(-3, 2)]]))
    assert counting._similarity_radius_sq(P, radii) == Fraction(13, 9)
    # a coordinate line: c = (0, 1), so only column 2 bounds
    P = lambda_of(to_echelon(QQ, [[0, 1]]))
    assert counting._similarity_radius_sq(P, radii) == 1
    # the Q(sqrt 5) line through (1, phi): |phi| and |phi'| differ
    P = lambda_of(to_echelon(Qs5, [[Qs5.one(), Qs5.element([Fraction(1, 2), Fraction(1, 2)])]]))
    assert counting._similarity_radius_sq(P, radii) is None
    P = lambda_of(to_echelon(QQ, [[1, 0, 1], [0, 1, 2]]))
    assert counting._similarity_radius_sq(P, radii + (Fraction(1),)) is None


@pytest.mark.parametrize("name,k,m,cutoff", [("QQ", 1, 2, 12), ("QQ", 1, 3, 4), ("QQ", 2, 3, 4),
                                             ("Qi", 1, 2, 5), ("Qi", 2, 3, 2), ("Qs5", 1, 2, 6),
                                             ("Qzeta8", 1, 2, 2), ("Qi", 2, 2, 1)])
def test_similarity_radius_matches_per_column_products(request, name, k, m, cutoff):
    # the column Grams of the whole module set from one product per column,
    # against two intmat.mat_mul calls per column and module; Q(sqrt 5) has
    # lines of both kinds, planes have none that is a similarity
    mods = enumerate_primitive_modules(request.getfixturevalue(name), k, m, cutoff)
    radii = (Fraction(6, 5), Fraction(1), Fraction(7, 5))[:m]
    got = [counting._similarity_radius_sq(P, radii) for P in mods]
    assert got and got == [similarity_radius_sq_loop(P, radii) for P in mods]


@pytest.mark.parametrize("name,k,m,cutoff", [("QQ", 1, 2, 5), ("QQ", 1, 3, 2), ("Qi", 1, 2, 3),
                                             ("Qs5", 1, 2, 4), ("QQ", 2, 2, 1),
                                             ("QQ", 3, 3, 1), ("Qi", 2, 2, 1)])
def test_closed_form_terms_match_mc(request, name, k, m, cutoff):
    # every closed-form term within 4 stderr of the estimator where it hits
    field = request.getfixturevalue(name)
    f = product_of_balls([Fraction(6, 5), Fraction(1), Fraction(7, 5)][:m])
    closed = hits = 0
    for idx, P in enumerate(enumerate_primitive_modules(field, k, m, cutoff)):
        tv = term_value_detail(P, 3, f, mc_samples=20000, seed=idx)
        if tv.method != "closed_form":
            continue
        closed += 1
        assert tv.stderr == 0.0 and "lattice" not in vars(P)    # no lattice was built
        mc = counting._mc_term(f, P, 3, 20000, idx)
        if mc.stderr > 0:
            hits += 1
            assert abs(mc.value - tv.value) <= 4 * mc.stderr
    assert hits >= 1 and closed >= 1


def test_non_similar_line_keeps_the_mc_estimate(Qs5):
    # (value, stderr) as the estimator gave them before the closed forms
    P = lambda_of(to_echelon(Qs5, [[Qs5.one(),
                                    Qs5.element([Fraction(-1, 2), Fraction(-1, 2)])]]))
    f = product_of_balls([Fraction(6, 5), 1])
    tv = term_value_detail(P, 3, f, mc_samples=3000, seed=11)
    assert tv.method == "monte_carlo"
    assert (tv.value, tv.stderr) == (3.520277604560171, 0.3057416692615787)
    assert (tv.value, tv.stderr) == term_value_detail_loop(P, 3, f, 3000, seed=11)


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
    tv = counting._mc_term(f, P, n, samples, seed)
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
            tv = counting._mc_term(f, P, n, 3000, seed)
            assert (tv.value, tv.stderr) == term_value_detail_loop(P, n, f, 3000, seed=seed)

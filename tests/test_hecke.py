import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latrank import (
    FiniteSubspace,
    PowerProduct,
    ball,
    c1_estimate,
    containment_probability,
    convergence_table,
    enumerate_primitive_modules,
    enumerate_subspaces,
    gaussian_binomial,
    hecke_neighbor,
    lattice_sum,
    moment_lhs,
    moment_rhs_limit,
    moment_stratified,
    okn_lattice,
    rank_drop_check,
    InvariantError,
    ValidationError,
)
from latrank import hecke
from latrank.counting import custom, product_of_balls
from latrank.hecke import sample_subspace, validate_moment_window
from latrank.kernels import ranks_mod_p
from latrank.zlattice import short_vectors
from latrank.zlattice import unit_ball_volume
from tests_support import (
    enumerate_subspaces_loop,
    moment_k1_oracle_Q,
    moment_lhs_loop,
    moment_stratified_reference,
)


class TestGaussianBinomial:
    def test_lines_in_f2_squared(self):
        assert gaussian_binomial(1, 2, 2) == 3

    def test_planes_in_f3_fourth(self):
        assert gaussian_binomial(2, 4, 3) == 130

    def test_exhaustive_oracle(self):
        assert gaussian_binomial(2, 4, 3) == len(enumerate_subspaces(2, 4, 3))

    def test_edges(self):
        assert gaussian_binomial(0, 5, 7) == 1
        assert gaussian_binomial(5, 5, 7) == 1
        assert gaussian_binomial(3, 2, 5) == 0

    def test_duality(self):
        for q in (2, 3, 5):
            for n in range(1, 6):
                for s in range(n + 1):
                    assert gaussian_binomial(s, n, q) == gaussian_binomial(n - s, n, q)


class TestSubspaces:
    def test_counts(self):
        assert len(enumerate_subspaces(1, 2, 2)) == 3
        assert len(enumerate_subspaces(2, 3, 2)) == 7
        assert len(enumerate_subspaces(3, 3, 5)) == 1

    def test_canonical_echelon_validated(self):
        with pytest.raises(ValueError):
            FiniteSubspace(q=2, n=2, s=1, rows=((0, 0),))
        with pytest.raises(ValueError):
            FiniteSubspace(q=3, n=2, s=2, rows=((1, 1), (0, 1)))

    @pytest.mark.parametrize("s,rows,match", [
        (2, ((1, 0, 2),), "need s = 2 rows"),
        (0, ((1, 0, 0),), "need s = 0 rows"),
        (1, ((1, 0),), "length n = 3"),
        (2, ((1, 0, 2), (0, 1)), "length n = 3"),
        (1, ((1, 0, 5),), r"entries must lie in \[0, 5\)"),
        (1, ((1, -1, 0),), r"entries must lie in \[0, 5\)"),
    ])
    def test_shape_and_range_validated(self, s, rows, match):
        with pytest.raises(ValueError, match=match):
            FiniteSubspace(q=5, n=3, s=s, rows=rows)

    def test_order_matches_loop(self):
        for q in (2, 3):
            for n in range(1, 5):
                for s in range(n + 1):
                    assert [S.rows for S in enumerate_subspaces(s, n, q)] == \
                        enumerate_subspaces_loop(s, n, q)

    def test_all_distinct(self):
        subs = enumerate_subspaces(2, 4, 3)
        assert len({S.rows for S in subs}) == len(subs)

    def test_sampling_is_uniform(self):
        rng = np.random.default_rng(42)
        counts = {}
        N = 6000
        for _ in range(N):
            S = sample_subspace(1, 2, 3, rng)
            counts[S.rows] = counts.get(S.rows, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c - N / 4) < 5 * math.sqrt(N * 0.25 * 0.75)


class TestContainment:
    def test_point_on_line(self):
        assert containment_probability(1, 1, 2, 2) == Fraction(1, 3)

    def test_trivial_cases(self):
        assert containment_probability(0, 1, 4, 3) == 1
        assert containment_probability(2, 1, 4, 3) == 0

    def test_counts_are_integers(self):
        for q in (2, 3, 5):
            for n in range(1, 5):
                for s in range(n + 1):
                    for k in range(s + 1):
                        v = containment_probability(k, s, n, q) * gaussian_binomial(s, n, q)
                        assert v.denominator == 1

    def test_exhaustive_oracle(self):
        # count subspaces containing span(e_1, .., e_k) directly
        q, n = 3, 4
        for s in range(1, n):
            for k in range(1, s + 1):
                total = 0
                for S in enumerate_subspaces(s, n, q):
                    M = np.array(S.rows, dtype=np.int64)
                    ok = True
                    for t in range(k):
                        e = np.zeros(n, dtype=np.int64)
                        e[t] = 1
                        aug = np.vstack([M, e])
                        if ranks_mod_p(aug[None, :, :], q)[0] > s:
                            ok = False
                            break
                    if ok:
                        total += 1
                expect = containment_probability(k, s, n, q) * gaussian_binomial(s, n, q)
                assert total == expect

    def test_leading_order_law(self):
        for k, s, n in [(1, 1, 2), (1, 2, 3), (2, 2, 3), (2, 3, 5)]:
            cs = []
            for q in (2, 3, 5, 7, 11, 13):
                pr = containment_probability(k, s, n, q)
                eps = abs(float(pr) * q ** (k * (n - s)) - 1)
                cs.append(eps * q)
            assert max(cs) <= 3
            # the fitted constant is stable: later values do not blow up
            assert max(cs[2:], default=0) <= max(cs[0], 0.5) + 0.5


class TestHeckeNeighbor:
    def test_z2_line(self, QQ):
        P = QQ.prime_above(2)
        S = FiniteSubspace(q=2, n=2, s=1, rows=((1, 0),))
        hl = hecke_neighbor(QQ, P, S)
        assert [[int(x) for x in r] for r in hl.lattice.basis] == [[1, 0], [0, 2]]
        assert hl.covolume_sq() == PowerProduct.coerce(1)
        assert abs(hl.covolume() - 1.0) < 1e-12
        assert abs(hl.t_scale - math.sqrt(2)) < 1e-14

    def test_full_space_is_identity(self, QQ):
        P = QQ.prime_above(3)
        S = enumerate_subspaces(2, 2, 3)[0]
        hl = hecke_neighbor(QQ, P, S)
        assert hl.t_scale == 1.0
        assert [[int(x) for x in r] for r in hl.lattice.basis] == [[1, 0], [0, 1]]

    def test_gaussian_split_prime(self, Qi):
        P = Qi.prime_above(5)
        for S in enumerate_subspaces(1, 2, 5):
            hl = hecke_neighbor(Qi, P, S)
            assert abs(hl.covolume() - 1.0) < 1e-10
            assert hl.covolume_sq() == PowerProduct.coerce(1)

    def test_wrong_residue_field(self, QQ):
        P = QQ.prime_above(2)
        S = FiniteSubspace(q=3, n=2, s=1, rows=((1, 0),))
        with pytest.raises(ValueError):
            hecke_neighbor(QQ, P, S)

    def test_wrong_hermite_form_fails_covolume(self, QQ, monkeypatch):
        # a Hermite form with the right diagonal but twice the determinant: the
        # neighbor passes its index check and fails the covolume check
        from latrank import intmat

        hnf = intmat.hermite_normal_form

        def wrong_hnf(A):
            H = hnf(A)
            H[0][1], H[1][0] = H[0][0], -H[1][1]
            return H

        monkeypatch.setattr(intmat, "hermite_normal_form", wrong_hnf)
        S = FiniteSubspace(q=2, n=2, s=1, rows=((1, 0),))
        with pytest.raises(InvariantError, match="neighbor covolume"):
            hecke_neighbor(QQ, QQ.prime_above(2), S)

    def test_neighbor_count_matches_grassmannian(self, QQ):
        for p in (2, 3, 5):
            P = QQ.prime_above(p)
            for n in (2, 3):
                base = okn_lattice(QQ, n)
                for s in range(n + 1):
                    keys = set()
                    for S in enumerate_subspaces(s, n, p):
                        hl = hecke_neighbor(QQ, P, S, base=base)
                        keys.add(tuple(tuple(x for x in r) for r in hl.lattice.basis))
                    assert len(keys) == gaussian_binomial(s, n, p)


class TestLatticeSum:
    def test_z2_ball(self, QQ):
        P = QQ.prime_above(2)
        S = enumerate_subspaces(2, 2, 2)[0]   # s = n, the lattice is Z^2
        hl = hecke_neighbor(QQ, P, S)
        assert lattice_sum(hl, ball(Fraction(3, 2))) == 9
        assert lattice_sum(hl, ball(Fraction(3, 2)), include_zero=False) == 8

    def test_below_min_norm(self, QQ):
        P = QQ.prime_above(2)
        S = enumerate_subspaces(2, 2, 2)[0]
        assert lattice_sum(hl := hecke_neighbor(QQ, P, S), ball(Fraction(1, 2)),
                           include_zero=False) == 0

    def test_scaled_index_two_brute_force(self, QQ):
        # lattice Z x 2Z scaled by 2^(-1/2): count v with 2 * ||v||^2 <= R^2 T^2
        P = QQ.prime_above(2)
        S = FiniteSubspace(q=2, n=2, s=1, rows=((1, 0),))
        hl = hecke_neighbor(QQ, P, S)
        R = Fraction(3, 2)
        expect = 0
        for a in range(-4, 5):
            for b in range(-4, 5):
                if b % 2 == 0 and (a * a + b * b) <= R * R * 2:
                    expect += 1
        assert lattice_sum(hl, ball(R)) == expect


class TestMomentIdentity:
    def test_hand_enumeration_2211(self, QQ):
        # three neighbors of Z^2 at p=2: Z x 2Z, 2Z x Z, and the checkerboard;
        # counts within radius 1.5 * sqrt(2) are 7, 7, 9
        P = QQ.prime_above(2)
        val = moment_lhs(QQ, P, 2, 1, 1, ball(Fraction(3, 2)))
        assert val == Fraction(23, 3)

    @pytest.mark.parametrize("p,n,s,m", [(2, 2, 1, 1), (2, 3, 2, 2), (3, 3, 2, 2)])
    @pytest.mark.parametrize("radius", [Fraction(6, 5), Fraction(3, 2)])
    def test_exact_identity(self, QQ, p, n, s, m, radius):
        P = QQ.prime_above(p)
        lhs = moment_lhs(QQ, P, n, s, m, ball(radius))
        strat = moment_stratified(QQ, P, n, s, m, ball(radius))
        assert isinstance(lhs, Fraction)
        assert lhs == strat

    def test_small_support_only_zero_term(self, QQ):
        P = QQ.prime_above(2)
        val = moment_stratified(QQ, P, 2, 1, 1, ball(Fraction(1, 4)))
        assert val == 1   # only x = 0 contributes, with probability 1

    def test_sampled_mode_matches_exact_mean(self, QQ):
        P = QQ.prime_above(3)
        exact = float(moment_lhs(QQ, P, 2, 1, 1, ball(Fraction(3, 2))))
        mean, stderr = moment_lhs(QQ, P, 2, 1, 1, ball(Fraction(3, 2)),
                                  mode="sampled", sample_count=800, seed=21)
        assert abs(mean - exact) <= 3 * stderr + 1e-9


    def test_broken_membership_fails_incidence(self, QQ, monkeypatch):
        # check matrices that annihilate everything put every point in every
        # neighbor, which the incidence count rejects
        checks = hecke._check_matrices
        monkeypatch.setattr(hecke, "_check_matrices",
                            lambda rows, q: np.zeros_like(checks(rows, q)))
        with pytest.raises(InvariantError, match="neighbor incidence"):
            moment_lhs(QQ, QQ.prime_above(2), 2, 1, 1, ball(Fraction(3, 2)))

    def test_check_matrices_annihilate(self):
        for q, n, s in [(2, 3, 1), (3, 4, 2), (5, 3, 2), (3, 3, 0), (3, 3, 3)]:
            rows = hecke._subspace_rows(s, n, q)
            checks = hecke._check_matrices(rows, q)
            assert checks.shape == (len(rows), n - s, n)
            assert not (rows @ checks.transpose(0, 2, 1) % q).any()
            assert (ranks_mod_p(checks, q) == n - s).all()

    def test_large_prime_equals_stratified(self, QQ):
        # 10,303 neighbors at p = 101, one enumeration of Z^3
        P = QQ.prime_above(101)
        g = ball(Fraction(6, 5))
        lhs = moment_lhs(QQ, P, 3, 2, 2, g)
        assert lhs == moment_stratified(QQ, P, 3, 2, 2, g) == Fraction(922447, 10303)

    @pytest.mark.parametrize("p", [53, 1009])
    def test_m2_counts_pairs_by_line(self, QQ, p):
        # the pairs of rank <= 1 mod p number z^2 + 2 z sum(c_L) + sum(c_L^2), for z
        # zero columns and c_L columns on the line L, each line found by scaling
        # a residue by the inverse of its first nonzero entry
        R = Fraction(6, 5)
        cols = short_vectors(okn_lattice(QQ, 3), R * PowerProduct.of(p, Fraction(1, 3)))
        z, on_line = 0, {}
        for col in (cols % p).tolist():
            lead = next((x for x in col if x), 0)
            if not lead:
                z += 1
                continue
            line = tuple(x * pow(lead, -1, p) % p for x in col)
            on_line[line] = on_line.get(line, 0) + 1
        c = list(on_line.values())
        low = z * z + 2 * z * sum(c) + sum(x * x for x in c)
        want = (z * z + (low - z * z) * containment_probability(1, 2, 3, p)
                + (len(cols) ** 2 - low) * containment_probability(2, 2, 3, p))
        assert moment_stratified(QQ, QQ.prime_above(p), 3, 2, 2, ball(R)) == want

    @pytest.mark.parametrize("p,n,s,m,want", [
        # moment_stratified_reference, the tuple loop, gives the same values in
        # 6.1 s, 62.9 s and 5.8 s on a 2-vCPU Xeon
        (1009, 3, 2, 2, Fraction(30100161, 339697)),
        (53, 4, 3, 3, Fraction(113230369, 37935)),
        (3, 5, 4, 4, Fraction(16980921, 121)),
    ])
    def test_reach_pins(self, QQ, p, n, s, m, want):
        assert moment_stratified(QQ, QQ.prime_above(p), n, s, m, ball(Fraction(6, 5))) == want

    def test_broken_membership_fails_flat_counts(self, QQ, monkeypatch):
        # check matrices that annihilate everything put every line in every
        # plane, so the planes count more tuples than there are
        checks = hecke._check_matrices
        monkeypatch.setattr(hecke, "_check_matrices",
                            lambda rows, q: np.zeros_like(checks(rows, q)))
        with pytest.raises(InvariantError, match="flat counts"):
            moment_stratified(QQ, QQ.prime_above(5), 4, 3, 3, ball(Fraction(6, 5)))


@pytest.mark.parametrize("name,p", [("QQ", 2), ("QQ", 3), ("QQ", 5), ("QQ", 7), ("Qi", 2),
                                    ("Qi", 5), ("Qs5", 5), ("Qs5", 11)])
@pytest.mark.parametrize("n,s,m", [(3, 2, 1), (3, 2, 2), (4, 3, 2), (4, 3, 3)])
def test_moment_stratified_matches_tuple_loop(request, name, p, n, s, m):
    field = request.getfixturevalue(name)
    P, g = field.prime_above(p), ball(Fraction(6, 5))
    assert moment_stratified(field, P, n, s, m, g) == \
        moment_stratified_reference(field, P, n, s, m, g)


# degree-one primes of each field that prime_above accepts
_MOMENT_PRIMES = {"QQ": (2, 3, 5, 7, 11), "Qi": (2, 5, 13, 17), "Qs5": (5, 11, 19)}


@st.composite
def _moment_cases(draw, field, name):
    p = draw(st.sampled_from(_MOMENT_PRIMES[name]))
    n = draw(st.integers(2, 4))
    # below s = 2 the ball of O_K^4 at T_P = p^((4 - s) / 4d) can hold millions of points
    s = draw(st.integers(0 if n < 4 else 2, n))
    m = draw(st.integers(1, 2)) if n < 4 else 3
    radius = draw(st.sampled_from([Fraction(1), Fraction(6, 5), Fraction(3, 2)]))
    # moment_lhs_loop builds every neighbor and enumerates each one: keep the
    # points of O_K^n in the ball of radius R T_P, which every neighbor sum
    # reads, to a few hundred, and the neighbors of O_K^4 to a few hundred
    # (at n <= 3 they number at most 381)
    assume(n < 4 or gaussian_binomial(s, n, p) <= 200)
    t_p = PowerProduct.of(p, Fraction(n - s, n * field.degree))
    assume(len(short_vectors(okn_lattice(field, n), radius * t_p)) <= 400)
    return p, n, s, m, radius


def _gaussian_bump(radius):
    r_sq = float(radius) ** 2
    return custom(lambda v: math.exp(-float(v @ v)) if float(v @ v) <= r_sq else 0.0,
                  support_radius=float(radius))


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_moment_lhs_matches_neighbor_loop(name, data, QQ, Qi, Qs5):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    p, n, s, m, radius = data.draw(_moment_cases(field, name))
    P = field.prime_above(p)
    include_zero = data.draw(st.booleans())
    g = ball(radius)
    assert moment_lhs(field, P, n, s, m, g, include_zero=include_zero) == \
        moment_lhs_loop(field, P, n, s, m, g, include_zero=include_zero)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    sampled = dict(mode="sampled", sample_count=20, seed=seed, include_zero=include_zero)
    assert moment_lhs(field, P, n, s, m, g, **sampled) == \
        moment_lhs_loop(field, P, n, s, m, g, **sampled)
    bump = _gaussian_bump(radius)
    assert moment_lhs(field, P, n, s, m, bump, include_zero=include_zero) == pytest.approx(
        moment_lhs_loop(field, P, n, s, m, bump, include_zero=include_zero))
    assert moment_lhs(field, P, n, s, m, bump, **sampled) == pytest.approx(
        moment_lhs_loop(field, P, n, s, m, bump, **sampled))


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_moment_identity_property(name, data, QQ, Qi, Qs5):
    field = {"QQ": QQ, "Qi": Qi, "Qs5": Qs5}[name]
    p, n, s, m, radius = data.draw(_moment_cases(field, name))
    P = field.prime_above(p)
    lhs = moment_lhs(field, P, n, s, m, ball(radius))
    assert isinstance(lhs, Fraction)
    assert lhs == moment_stratified(field, P, n, s, m, ball(radius))


class TestMomentRhs:
    def test_m1_cross_check_with_c1(self, QQ):
        # for m = 1 the limit is g(0) + the rank-one series
        g = ball(1)
        rhs, per_k, err = moment_rhs_limit(QQ, 3, 1, g, 40, mc_samples=50000, seed=3)
        c1 = c1_estimate(QQ, 3, 1, 1, g, 40).partial_sum
        assert per_k[0] == 1.0
        assert abs(per_k[1] - c1) <= 3 * err + 1e-9

    def test_two_run_consistency(self, QQ):
        g = ball(Fraction(6, 5))
        v30, _, e30 = moment_rhs_limit(QQ, 3, 2, g, 30, mc_samples=20000, seed=5)
        v60, _, e60 = moment_rhs_limit(QQ, 3, 2, g, 60, mc_samples=20000, seed=5)
        # increasing the cutoff only adds positive terms, within MC noise
        assert v60 >= v30 - 3 * (e30 + e60)
        assert v60 - v30 < 5.0

    @pytest.mark.parametrize("name,n,m,cutoff", [("Qi", 3, 2, 4), ("Qs5", 3, 2, 2),
                                                 ("QQ", 4, 3, 2)])
    def test_rank_m_term_is_the_product_of_column_balls(self, request, name, n, m, cutoff):
        # O_K^m: hn (V(n d) R^(n d))^m; Monte Carlo drew no hit over Q(i),
        # where the integral lives in dimension 12, and reported 0.0
        field = request.getfixturevalue(name)
        R, nd = Fraction(6, 5), n * field.degree
        _, per_k, _ = moment_rhs_limit(field, n, m, ball(R), cutoff, mc_samples=2000, seed=1)
        (P,) = enumerate_primitive_modules(field, m, m, 1)
        want = float(P.height_sq) ** (-n / 2) * (unit_ball_volume(nd) * float(R) ** nd) ** m
        assert per_k[m] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("cutoff", [8, 30])
    def test_limit_over_Q_against_the_oracle(self, QQ, cutoff):
        # every term over Q at m = 2 is closed form, so the limit has no
        # Monte Carlo error and no seed dependence
        R = Fraction(6, 5)
        value, per_k, err = moment_rhs_limit(QQ, 3, 2, ball(R), cutoff, mc_samples=20000, seed=1)
        assert per_k[1] == pytest.approx(moment_k1_oracle_Q(3, R, cutoff), rel=1e-12)
        assert per_k[2] == pytest.approx(unit_ball_volume(3) ** 2 * float(R) ** 6, rel=1e-12)
        assert err == 0.0
        assert moment_rhs_limit(QQ, 3, 2, ball(R), cutoff, mc_samples=20000,
                                seed=2) == (value, per_k, err)
        # so it draws no sample and needs none
        assert moment_rhs_limit(QQ, 3, 2, ball(R), cutoff, mc_samples=0) == (value, per_k, err)

    def test_window_rejected(self, QQ):
        with pytest.raises(ValidationError):
            moment_rhs_limit(QQ, 3, 3, ball(1), 10)

    def test_shifted_support_kills_constant_term(self, QQ):
        from latrank.counting import custom

        g = custom(lambda v: 1.0 if 1.0 <= math.sqrt(float(v @ v)) <= 1.6 else 0.0,
                   support_radius=1.6)
        _, per_k, _ = moment_rhs_limit(QQ, 3, 2, g, 8, mc_samples=4000, seed=2)
        assert per_k[0] == 0.0


class TestCustomG:
    def test_custom_indicator_matches_ball(self, QQ):
        from latrank.counting import custom

        P = QQ.prime_above(2)
        gb = ball(Fraction(3, 2))
        gc = custom(lambda v: 1.0 if float(v @ v) <= 2.25 else 0.0,
                    support_radius=1.5)
        S = FiniteSubspace(q=2, n=2, s=1, rows=((1, 0),))
        hl = hecke_neighbor(QQ, P, S)
        assert lattice_sum(hl, gc) == float(lattice_sum(hl, gb))
        assert moment_lhs(QQ, P, 2, 1, 1, gc) == pytest.approx(
            float(moment_lhs(QQ, P, 2, 1, 1, gb)))


def test_moment_stratified_chunks(QQ, monkeypatch):
    # the flats of dimension 2 and 3 come from (flat, line) pairs in pieces of
    # 97, the last one partial, and their incidence in pieces of a few flats
    monkeypatch.setattr(hecke, "_PAIR_BLOCK", 97)
    g = ball(Fraction(6, 5))
    for p, n, s, m in [(7, 4, 3, 3), (2, 5, 4, 4)]:
        P = QQ.prime_above(p)
        assert moment_stratified(QQ, P, n, s, m, g) == \
            moment_stratified_reference(QQ, P, n, s, m, g)
    assert moment_stratified(QQ, QQ.prime_above(53), 3, 2, 2, g) == Fraction(258487, 2863)


class TestUnsupportedG:
    """Each moment entry point rejects the test functions it has no rule for."""

    def test_stratified_takes_balls_only(self, QQ):
        P = QQ.prime_above(3)
        for g in (custom(lambda v: 1.0, support_radius=1.0), product_of_balls(1)):
            with pytest.raises(ValueError, match="implemented for ball test functions"):
                moment_stratified(QQ, P, 3, 2, 2, g)

    def test_lattice_sum_rejects_product_of_balls(self, QQ):
        S = FiniteSubspace(q=2, n=2, s=1, rows=((1, 0),))
        hl = hecke_neighbor(QQ, QQ.prime_above(2), S)
        with pytest.raises(ValueError, match="lattice sums support ball and custom"):
            lattice_sum(hl, product_of_balls(1))

    def test_rhs_limit_rejects_product_of_balls(self, QQ):
        with pytest.raises(ValueError, match="moment limits take ball or custom g"):
            moment_rhs_limit(QQ, 3, 2, product_of_balls(1), 5)


class TestRankDrop:
    def test_scalar_p(self, QQ):
        P = QQ.prime_above(5)
        rk, rkp, ok, thr = rank_drop_check(QQ, [[5]], P)
        assert (rk, rkp, ok) == (1, 0, True)
        assert thr == 5.0

    def test_diag_1_p(self, QQ):
        P = QQ.prime_above(5)
        rk, rkp, ok, thr = rank_drop_check(QQ, [[1, 0], [0, 5]], P)
        assert (rk, rkp) == (2, 1)
        assert ok
        assert abs(thr - math.sqrt(5.0 / 2.0)) < 1e-12

    def test_no_drop_vacuous(self, QQ):
        P = QQ.prime_above(5)
        rk, rkp, ok, thr = rank_drop_check(QQ, [[1, 2], [3, 4]], P)
        assert rk == rkp == 2
        assert ok and thr == 0.0

    def test_exhaustive_small(self, QQ):
        # every 2x2 integer matrix with Frobenius norm <= 10
        for p in (2, 3, 5):
            P = QQ.prime_above(p)
            for a in range(-3, 4):
                for b in range(-3, 4):
                    for c in range(-3, 4):
                        for d in range(-3, 4):
                            rk, rkp, ok, thr = rank_drop_check(
                                QQ, [[a, b], [c, d]], P)
                            assert ok, (a, b, c, d, p)

    def test_gaussian_field(self, Qi):
        P = Qi.prime_above(5, root=2)
        theta = Qi.gen()
        x = [[theta - Qi.coerce(2)]]   # generates the prime, norm 5
        rk, rkp, ok, thr = rank_drop_check(Qi, x, P)
        assert (rk, rkp) == (1, 0)
        assert ok


class TestConvergenceTable:
    def test_window_acceptance(self):
        validate_moment_window(3, 2, 2)
        with pytest.raises(ValidationError) as exc:
            validate_moment_window(4, 3, 1)
        assert "1 - s/n < 1/m" in str(exc.value)

    @pytest.mark.parametrize("n,m,s", [(3, 0, 2), (3, -1, 2), (1, 1, 0), (0, 1, -1)])
    def test_window_rejects_small_n_and_m(self, QQ, n, m, s):
        with pytest.raises(ValidationError, match="need n >= 2 and m >= 1"):
            validate_moment_window(n, m, s)
        with pytest.raises(ValidationError, match="need n >= 2 and m >= 1"):
            convergence_table(QQ, n, m, s, ball(1), primes=[5])

    def test_small_table_trends_down(self, QQ):
        # the m = 1 moments at radius 1.5 carry circle-count fluctuations of
        # size ~1 at single-digit primes (exact values: 23/3 at p=2, 6 at p=3,
        # 20/3 at p=11), so the decreasing trend is asserted against a prime
        # large enough to dominate them
        g = ball(Fraction(3, 2))
        reports = convergence_table(QQ, 2, 1, 1, g, primes=[2, 3, 11, 199],
                                    mode="exact", height_cutoff=30,
                                    mc_samples=40000, seed=9)
        assert all(r.lhs_exact == r.stratified_exact for r in reports)
        assert reports[0].lhs_exact == Fraction(23, 3)
        assert reports[2].lhs_exact == Fraction(20, 3)
        assert reports[-1].abs_error < reports[0].abs_error
        assert reports[-1].abs_error < reports[1].abs_error

    @pytest.mark.parametrize("mode, primes, modes", [
        ("exact", [5], ["exact"]),
        # auto samples once the Grassmannian passes EXACT_SUBSPACE_CAP:
        # 73^2 + 73 + 1 = 5403 planes in F_73^3
        ("auto", [5, 73], ["exact", "sampled:2000"]),
        ("sampled", [5], ["sampled:2000"]),
        ("sampled:3", [5], ["sampled:3"]),
    ])
    def test_modes(self, QQ, mode, primes, modes):
        assert hecke.gaussian_binomial(2, 3, 73) > hecke.EXACT_SUBSPACE_CAP
        reports = convergence_table(QQ, 3, 2, 2, ball(1), primes=primes, mode=mode,
                                    height_cutoff=3, mc_samples=200, seed=1)
        assert [r.mode for r in reports] == modes
        for r in reports:
            assert r.stratified_exact is not None
            assert (r.lhs_exact is not None) == (r.mode == "exact")

    @pytest.mark.parametrize("mode", ["sampledXYZ", "sampled:", "sampled:0", "sampled:-2",
                                      "sampled:2.5", "Exact", "auto:5", ""])
    def test_unknown_mode_rejected_before_the_limit(self, QQ, mode, monkeypatch):
        monkeypatch.setattr(hecke, "moment_rhs_limit",
                            lambda *a, **k: pytest.fail("the limit ran on a bad mode"))
        with pytest.raises(ValidationError, match=f"unknown mode {mode!r}"):
            convergence_table(QQ, 3, 2, 2, ball(1), primes=[5], mode=mode)

    def test_report_fields(self, QQ):
        g = ball(1)
        reports = convergence_table(QQ, 2, 1, 1, g, primes=[3], mode="exact",
                                    height_cutoff=10, mc_samples=5000, seed=1)
        r = reports[0]
        assert r.p == 3 and r.mode == "exact"
        assert r.abs_error == abs(r.lhs - r.rhs_limit)

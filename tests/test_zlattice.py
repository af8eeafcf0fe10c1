import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latrank import (
    Ambient,
    EnumerationCapError,
    PowerProduct,
    ZLattice,
    covering_radius_bound,
    direct_sum,
    enumerate_subspaces,
    hadamard_ratio,
    hecke_neighbor,
    height,
    integer_lattice,
    intmat,
    lll_reduce,
    okn_lattice,
    saturate,
    short_vectors,
    successive_k_minima,
    unit_ball_volume,
)
from latrank import kernels, zlattice
from latrank.errors import MembershipError
from latrank.zlattice import (
    _lll_transform,
    is_primitive_in,
    lll_transform_of,
    saturation_index,
    shortest_nonzero_sqnorm,
)


from tests_support import brute_force_short, gram_loop, lll_transform_loop, max_minor_gcd, rref_loop


class TestHeights:
    def test_standard(self):
        assert height(integer_lattice(2)) == 1.0

    def test_diag(self):
        L = ZLattice([[2, 0], [0, 3]], Ambient.standard(2))
        assert height(L) == 6.0

    def test_line(self):
        L = ZLattice([[2, 1]], Ambient.standard(2))
        assert abs(height(L) - math.sqrt(5)) < 1e-14
        assert L.height_sq() == PowerProduct.coerce(5)

    def test_positive_definite_required(self):
        with pytest.raises(ValueError):
            ZLattice([[1, 0], [1, 0]], Ambient.standard(2))

    @pytest.mark.parametrize("basis, form", [
        # leading minors 1, 1, then 0: a dependent last row
        ([[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]]),
        # leading minors 1, 1, then -1: an indefinite form
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        # rational: minors 1/2, then 1/6 - 1 < 0
        ([[1, 0], [0, 1]], [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]),
    ])
    def test_last_minor_not_positive_rejected(self, basis, form):
        with pytest.raises(ValueError, match="gram is not positive definite"):
            ZLattice(basis, Ambient(form, PowerProduct.coerce(1)))

    def test_det_gram_matches_rational_det(self, Qi, Qs5):
        lattices = [
            integer_lattice(2),
            ZLattice([[2, 0], [0, 3]], Ambient.standard(2)),
            ZLattice([[2, 1]], Ambient.standard(2)),
            ZLattice([[1, 0, 0], [10, 1, 0], [3, 7, 1]], Ambient.standard(3)),
            direct_sum(ZLattice([[2, 1]], Ambient.standard(2)), 3),
            okn_lattice(Qi, 2),
            okn_lattice(Qs5, 2),
            ZLattice([[1, 2], [0, 3]], Ambient([[Fraction(1, 2), Fraction(1, 7)],
                                                [Fraction(1, 7), Fraction(5, 3)]],
                                               PowerProduct.coerce(1))),
        ]
        for L in lattices:
            det = intmat.det([list(r) for r in L.gram])
            assert L.det_gram() == det
            assert L.height_sq() == L.scale_sq ** L.rank * det


def _assert_gram_matches_loop(L):
    assert L.gram == gram_loop(L)
    assert L.det_gram() == intmat.det([list(r) for r in L.gram])
    # gram_int / gram_den is the lcm scaling of the Fraction Gram
    assert L.gram_den == intmat._integral(L.gram)[0]
    assert L.gram_int == tuple(tuple(x * L.gram_den for x in row) for row in L.gram)


_small_fraction = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gram_matches_fraction_loop(data):
    # a positive definite rational form C C^T and a rational basis of rank r
    N = data.draw(st.integers(1, 4), label="ambient dim")
    r = data.draw(st.integers(1, N), label="rank")
    C = data.draw(st.lists(st.lists(_small_fraction, min_size=N, max_size=N),
                           min_size=N, max_size=N), label="C")
    assume(intmat.rank(C) == N)
    B = data.draw(st.lists(st.lists(_small_fraction, min_size=N, max_size=N),
                           min_size=r, max_size=r), label="basis")
    assume(intmat.rank(B) == r)
    form = intmat.mat_mul(C, intmat.transpose(C))
    L = ZLattice(B, Ambient(form, PowerProduct.coerce(1)))
    _assert_gram_matches_loop(L)
    _assert_gram_matches_loop(direct_sum(L, data.draw(st.integers(1, 3), label="copies")))


@pytest.mark.parametrize("name", ["QQ", "Qi", "Qs5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_field_lattice_grams_match_fraction_loop(name, data, request):
    from latrank import lambda_of, to_echelon
    from tests_support import from_integral_coords

    field = request.getfixturevalue(name)
    m = data.draw(st.integers(1, 3), label="m")
    _assert_gram_matches_loop(okn_lattice(field, m))
    # Lambda_D of a line through (1, x_1, ..., x_{m-1}) and its stacked copies
    entries = [from_integral_coords(field, [Fraction(data.draw(st.integers(-9, 9)),
                                                     data.draw(st.integers(1, 9)))
                                            for _ in range(field.degree)])
               for _ in range(m - 1)]
    lat = lambda_of(to_echelon(field, [[field.one()] + entries])).lattice
    _assert_gram_matches_loop(lat)
    _assert_gram_matches_loop(direct_sum(lat, data.draw(st.integers(1, 3), label="copies")))


class TestLLL:
    def test_orthogonal_unchanged(self):
        L = ZLattice([[3, 0], [0, 2]], Ambient.standard(2))
        red = lll_reduce(L)
        norms = sorted(float(red.gram[i][i]) for i in range(2))
        assert norms == [4.0, 9.0]

    def test_skew_basis(self):
        L = ZLattice([[1, 0], [10, 1]], Ambient.standard(2))
        red = lll_reduce(L)
        assert max(float(red.gram[i][i]) for i in range(2)) <= 4
        assert red.height_sq() == L.height_sq()

    def test_hadamard_never_increases(self):
        rng = random.Random(2)
        for _ in range(20):
            rows = [[rng.randint(-8, 8) for _ in range(3)] for _ in range(3)]
            from latrank import intmat

            if intmat.rank(rows) < 3:
                continue
            L = ZLattice(rows, Ambient.standard(3))
            red = lll_reduce(L)
            assert hadamard_ratio(red) <= hadamard_ratio(L) + 1e-9

    @pytest.mark.parametrize("gram, delta, U", [
        ([[2, 1], [1, 2]], Fraction(99, 100), [[1, 0], [-1, 1]]),  # mu = +1/2 rounds to 1
        ([[2, -1], [-1, 2]], Fraction(99, 100), [[1, 0], [0, 1]]),  # mu = -1/2 rounds to 0
        ([[4, 0], [0, 3]], Fraction(3, 4), [[1, 0], [0, 1]]),  # Lovasz equality: no swap
    ])
    def test_ties(self, gram, delta, U):
        gram = [[Fraction(x) for x in row] for row in gram]
        assert _lll_transform(gram, delta) == U
        assert lll_transform_loop(gram, delta) == U

    @pytest.mark.parametrize("p", [5, 7])
    def test_neighbor_lattices_match_reference(self, QQ, p):
        P = QQ.prime_above(p)
        base = okn_lattice(QQ, 3)
        for S in enumerate_subspaces(2, 3, p):
            lat = hecke_neighbor(QQ, P, S, base=base).lattice
            ref = lll_transform_loop([list(r) for r in lat.gram], Fraction(99, 100))
            assert lll_transform_of(lat) == tuple(tuple(row) for row in ref)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference_loop(self, data):
        # positive-definite G = s B B^T; 34-bit entries of B put G past 2**63
        r = data.draw(st.integers(1, 7), label="rank")
        c = r + data.draw(st.integers(0, 2), label="extra columns")
        bound = data.draw(st.sampled_from([9, 2 ** 34]), label="entry bound")
        B = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                               min_size=r, max_size=r), label="B")
        assume(intmat.rank(B) == r)
        scale = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 6),
                                           Fraction(1, 35)]), label="scale")
        delta = data.draw(st.sampled_from([Fraction(3, 4), Fraction(99, 100)]), label="delta")
        # the integer LLL runs on B B^T, a positive multiple of G
        G_int = intmat.mat_mul(B, intmat.transpose(B))
        G = [[scale * x for x in row] for row in G_int]
        assert _lll_transform(G_int, delta) == lll_transform_loop(G, delta)

    def test_transform_cached_per_lattice(self, monkeypatch):
        from latrank import intmat, zlattice

        L = ZLattice([[1, 0, 0], [10, 1, 0], [3, 7, 1]], Ambient.standard(3))
        U = lll_transform_of(L)
        runs = []
        monkeypatch.setattr(zlattice, "_lll_transform",
                            lambda *a: runs.append(a) or [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        # every later use reads the stored transform
        assert lll_transform_of(L) == U
        assert shortest_nonzero_sqnorm(L) == PowerProduct.coerce(1)
        assert len(short_vectors(L, 1)) == 7  # Z^3: zero and the six units
        assert [list(r) for r in lll_reduce(L).basis] == \
            [list(r) for r in ZLattice(intmat.mat_mul(U, [list(r) for r in L.basis]),
                                       L.ambient).basis]
        assert runs == []


class TestHadamard:
    def test_orthogonal_is_one(self):
        assert abs(hadamard_ratio(integer_lattice(2)) - 1.0) < 1e-14
        L = ZLattice([[2, 0], [0, 3]], Ambient.standard(2))
        assert abs(hadamard_ratio(L) - 1.0) < 1e-14

    def test_skew(self):
        L = ZLattice([[1, 0], [1, 1]], Ambient.standard(2))
        assert abs(hadamard_ratio(L) - math.sqrt(2)) < 1e-14

    def test_at_least_one_random(self):
        rng = random.Random(9)
        for _ in range(30):
            rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(2)]
            from latrank import intmat

            if intmat.rank(rows) < 2:
                continue
            assert hadamard_ratio(ZLattice(rows, Ambient.standard(3))) >= 1.0 - 1e-12

    def test_dependent_rows_error(self):
        with pytest.raises(ValueError):
            hadamard_ratio([[1, 2], [2, 4]])


def _rows(arr):
    return [tuple(v) for v in arr.tolist()]


def _log_int_dtype(mp):
    """Record (calling function, dtype) for every kernels.int_dtype decision."""
    log = []
    pick = kernels.int_dtype

    def spy(bound):
        dtype = pick(bound)
        log.append((sys._getframe(1).f_code.co_name, dtype))
        return dtype

    mp.setattr(kernels, "int_dtype", spy)
    return log


class TestShortVectors:
    def test_z2_radius1(self):
        got = short_vectors(integer_lattice(2), 1)
        assert got.dtype == np.int64 and got.shape == (5, 2)
        assert _rows(got) == sorted([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_z2_radius2(self):
        assert len(short_vectors(integer_lattice(2), 2)) == 13

    def test_gaussian_integers_radius1(self, Qi):
        L = okn_lattice(Qi, 1)
        got = short_vectors(L, 1)
        assert len(got) == 5

    def test_includes_zero_and_sorted(self):
        got = _rows(short_vectors(integer_lattice(3), Fraction(3, 2)))
        assert (0, 0, 0) in got
        assert got == sorted(got)

    def test_brute_force_equivalence_random(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            r = rng.randint(1, 3)
            n = r + rng.randint(0, 1)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            from latrank import intmat

            if intmat.rank(rows) < r:
                continue
            L = ZLattice(rows, Ambient.standard(n))
            radius = Fraction(rng.randint(2, 6))
            got = short_vectors(L, radius)
            expect = brute_force_short(L, Fraction(radius) ** 2)
            assert _rows(got) == expect
            checked += 1

    def test_brute_force_equivalence_rational_gram(self):
        # Grams with denominators: the exact filter runs on the lcm-scaled Gram
        rng = random.Random(29)
        checked = 0
        while checked < 20:
            r = rng.randint(1, 3)
            rows = [[Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6]))
                     for _ in range(r)] for _ in range(r)]
            from latrank import intmat

            if intmat.rank(rows) < r:
                continue
            L = ZLattice(rows, Ambient.standard(r))
            if intmat._integral(L.gram)[0] == 1:
                continue
            radius = Fraction(rng.randint(1, 3), 2)
            got = short_vectors(L, radius)
            expect = brute_force_short(L, Fraction(radius) ** 2)
            assert _rows(got) == expect
            checked += 1

    def test_brute_force_equivalence_twisted(self, Qi, Qs5):
        for K in (Qi, Qs5):
            L = okn_lattice(K, 2)
            got = short_vectors(L, 2)
            expect = brute_force_short(L, Fraction(4))
            assert _rows(got) == expect

    def test_irrational_radius_exact_boundary(self, Qs5):
        # norms in O_K(sqrt5) are q * 5^(-1/2); radius chosen to hit one exactly
        L = okn_lattice(Qs5, 1)
        nrm = shortest_nonzero_sqnorm(L)
        got = short_vectors(L, nrm.sqrt())
        qs = [L.sqnorm_exact_of_coords(c) for c in got if any(c)]
        assert all(q <= nrm for q in qs)
        assert any(q == nrm for q in qs)

    def test_cap_abort(self, monkeypatch):
        monkeypatch.setattr(zlattice, "DEFAULT_ENUM_CAP", 10_000)
        with pytest.raises(EnumerationCapError) as exc:
            short_vectors(integer_lattice(4), 500)
        assert exc.value.estimate > 10_000
        assert (exc.value.cap, exc.value.radius) == (10_000, 500)

    def test_cap_abort_before_building_a_frontier(self):
        # Z^12 at radius 10**6: the second level alone would hold ~pi 10**12
        # rows, so the count passes the default cap before any of them is built
        with pytest.raises(EnumerationCapError) as exc:
            short_vectors(integer_lattice(12), 10 ** 6)
        assert exc.value.estimate > 10 ** 12

    def test_coordinates_past_int64(self):
        # Z^2 on a basis whose coordinates of short vectors exceed int64:
        # the result holds Python ints, still sorted
        big = 10 ** 19
        L = ZLattice([[1, 0], [big, 1]], Ambient.standard(2))
        got = short_vectors(L, 1)
        assert got.dtype == object
        assert _rows(got) == [(-big, 1), (-1, 0), (0, 0), (1, 0), (big, -1)]
        # only 0 inside: the transform's bound still covers U's own entries
        assert _rows(short_vectors(L, Fraction(1, 2))) == [(0, 0)]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_object_dtype_matches_int64(self, data):
        # the same lattice points through the Python-int path of each site:
        # a Gram scaled by 4^40 (radius by 2^40) puts the exact filter's
        # quadratic form past 2**62, and the basis E B, with E unimodular and
        # one entry 2^62, puts the coordinate transform there
        r = data.draw(st.integers(1, 3), label="rank")
        n = r + data.draw(st.integers(0, 1), label="extra columns")
        B = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                               min_size=r, max_size=r), label="B")
        assume(intmat.rank(B) == r)
        radius = Fraction(data.draw(st.integers(1, 12), label="radius numerator"),
                          data.draw(st.integers(1, 3), label="radius denominator"))
        want = _rows(short_vectors(ZLattice(B, Ambient.standard(n)), radius))
        s = 2 ** 40
        with pytest.MonkeyPatch.context() as mp:
            log = _log_int_dtype(mp)
            scaled = ZLattice([[s * x for x in row] for row in B], Ambient.standard(n))
            assert _rows(short_vectors(scaled, s * radius)) == want
            assert ("_filter_exact", object) in log
        if r == 1:
            return
        t = 2 ** 62
        skewed = [list(row) for row in B]
        skewed[-1] = [a + t * b for a, b in zip(B[-1], B[0])]
        # x B = x' (E B) for x' = x E^-1: x'_0 = x_0 - t x_(r-1)
        expect = sorted((x[0] - t * x[-1],) + x[1:] for x in want)
        with pytest.MonkeyPatch.context() as mp:
            log = _log_int_dtype(mp)
            got = short_vectors(ZLattice(skewed, Ambient.standard(n)), radius)
            assert _rows(got) == expect
            assert ("short_vectors", object) in log


class TestSaturate:
    def test_index_two(self):
        amb = integer_lattice(2)
        sub = ZLattice([[2, 0]], Ambient.standard(2))
        sat = saturate(sub, amb)
        assert [[abs(int(x)) for x in r] for r in sat.basis] == [[1, 0]]
        assert saturation_index(sub, amb) == 2

    def test_gcd_division(self):
        amb = integer_lattice(2)
        sub = ZLattice([[2, 4]], Ambient.standard(2))
        sat = saturate(sub, amb)
        row = [int(x) for x in sat.basis[0]]
        assert row in ([1, 2], [-1, -2])

    def test_already_primitive(self):
        amb = integer_lattice(2)
        sub = ZLattice([[1, 2]], Ambient.standard(2))
        assert is_primitive_in(sub, amb)
        sat = saturate(sub, amb)
        assert saturation_index(sat, amb) == 1

    def test_idempotent(self):
        amb = integer_lattice(3)
        sub = ZLattice([[2, 4, 6], [0, 3, 9]], Ambient.standard(3))
        s1 = saturate(sub, amb)
        s2 = saturate(s1, amb)
        assert s1.basis == s2.basis

    def test_not_contained(self):
        amb = ZLattice([[2, 0], [0, 2]], Ambient.standard(2))
        sub = ZLattice([[1, 0]], Ambient.standard(2))
        with pytest.raises(MembershipError):
            saturate(sub, amb)


_small_int_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n,
                       max_size=n))


@settings(max_examples=80, deadline=None)
@given(B=_small_int_rows, data=st.data())
def test_saturation_matches_minor_oracles(B, data):
    # [saturation : sub] against |det X_P| / den, with the rational RREF of
    # the coordinates X from rref_loop, X_P their columns at its pivots and
    # den the index saturation_basis gives; and against the gcd of the
    # maximal minors of X.  The saturated basis is S times the ambient basis.
    n = len(B)
    assume(rref_loop(B)[2] == n)
    r = data.draw(st.integers(1, n), label="rank")
    X = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=r, max_size=r), label="coordinates")
    R, pivots, rk = rref_loop(X)
    assume(rk == r)
    amb = ZLattice(B, Ambient.standard(n))
    sub = ZLattice(intmat.mat_mul(X, B), Ambient.standard(n))
    S, den = intmat.saturation_basis(*intmat._integral(R))
    index = abs(intmat.det([[row[p] for p in pivots] for row in X])) / den
    assert saturation_index(sub, amb) == index == max_minor_gcd(X)
    assert saturate(sub, amb).basis == tuple(map(tuple, intmat.mat_mul(S, B)))


class TestMinima:
    def test_z2_canonical(self, QQ):
        rep = successive_k_minima(okn_lattice(QQ, 2))
        vecs = [[x.coords[0] for x in v] for v in rep.vectors]
        assert vecs == [[1, 0], [0, 1]]
        assert rep.norms == [1.0, 1.0]

    def test_skew_lattice(self, QQ):
        from latrank.zlattice import from_ok_rows

        L = from_ok_rows(QQ, [(QQ.one(), QQ.zero()), (QQ.coerce(10), QQ.one())])
        rep = successive_k_minima(L)
        vecs = [[x.coords[0] for x in v] for v in rep.vectors]
        assert vecs == [[1, 0], [0, 1]]

    def test_gaussian_rank1(self, Qi):
        L = okn_lattice(Qi, 1)
        rep = successive_k_minima(L, k=1)
        assert len(rep.vectors) == 1
        assert abs(rep.norms[0] - 1.0) < 1e-12

    def test_norms_increasing_and_projections(self, QQ):
        from latrank.zlattice import from_ok_rows

        L = from_ok_rows(QQ, [(QQ.one(), QQ.zero()), (QQ.zero(), QQ.coerce(7))])
        rep = successive_k_minima(L)
        assert rep.norms == sorted(rep.norms)
        assert all(ok for _, ok in rep.projections_ok)

    def test_rank_too_small(self, Qi):
        L = okn_lattice(Qi, 1)
        with pytest.raises(ValueError):
            successive_k_minima(L, k=2)

    def test_minkowski_first_minimum_bound(self, QQ, Qi):
        rng = random.Random(31)
        for K in (QQ, Qi):
            for _ in range(10):
                d = K.degree
                rows = [[K.coerce(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
                from latrank.numfield import rank_over_K
                from latrank.zlattice import from_ok_rows

                if rank_over_K(rows) < 2:
                    continue
                L = from_ok_rows(K, [tuple(r) for r in rows])
                lam1 = math.sqrt(float(shortest_nonzero_sqnorm(L)))
                r = L.rank
                assert lam1 <= 2 ** (r / 2) * L.height() ** (1 / r) + 1e-9


class TestCoveringRadius:
    def test_z1(self):
        assert covering_radius_bound(integer_lattice(1)) == 0.5

    def test_z2(self):
        assert abs(covering_radius_bound(integer_lattice(2)) - 1.0) < 1e-12

    def test_diag_1_10(self):
        L = ZLattice([[1, 0], [0, 10]], Ambient.standard(2))
        assert abs(covering_radius_bound(L) - 5.5) < 1e-12

    def test_is_upper_bound_for_z2(self):
        # true covering radius of Z^2 is sqrt(2)/2
        assert covering_radius_bound(integer_lattice(2)) >= math.sqrt(2) / 2


class TestSerialization:
    def test_roundtrip_plain(self):
        L = ZLattice([[2, 1], [0, 3]], Ambient.standard(2))
        text = L.dumps()
        L2 = ZLattice.loads(text, L.ambient)
        assert L2.basis == L.basis and L2.gram == L.gram

    def test_loads_rejects_edited_gram(self):
        import json

        L = ZLattice([[2, 1], [0, 3]], Ambient.standard(2))
        data = json.loads(L.dumps())
        assert data["gram"][0][0] == "5/1"
        data["gram"][0][0] = "6/1"
        with pytest.raises(ValueError, match="stored gram disagrees"):
            ZLattice.loads(json.dumps(data), L.ambient)

    def test_roundtrip_field(self, Qs5):
        import json

        L = okn_lattice(Qs5, 1)
        data = json.loads(L.dumps())
        assert data["rank"] == 2 and data["ambient_dim"] == 2
        # scale_sq = 5^(-1/2) = 1 * |disc|^(-pow/d) with pow = 1
        assert data["scale_sq_den_pow"] == 1
        assert data["scale_sq_num"] == "1/1"
        L2 = ZLattice.loads(L.dumps(), L.ambient)
        assert L2.basis == L.basis

    def test_direct_sum_heights(self):
        L = ZLattice([[2, 1]], Ambient.standard(2))
        M = direct_sum(L, 3)
        assert M.rank == 3 and M.ambient_dim == 6
        assert M.height_sq() == L.height_sq() ** 3


def test_unit_ball_volume():
    assert abs(unit_ball_volume(2) - math.pi) < 1e-14
    assert abs(unit_ball_volume(3) - 4 * math.pi / 3) < 1e-14
    assert abs(unit_ball_volume(6) - math.pi ** 3 / 6) < 1e-14

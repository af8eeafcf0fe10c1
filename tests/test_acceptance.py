"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s).
Run:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import latrank as lr
from latrank import (
    ball,
    c1_estimate,
    containment_probability,
    enumerate_primitive_modules,
    enumerate_subspaces,
    gaussian_binomial,
    hecke_neighbor,
    koecher_identity_check,
    lambda_of,
    lhs_count,
    moment_lhs,
    moment_rhs_limit,
    moment_stratified,
    okn_lattice,
    primitive_zeta_check,
    rank_drop_check,
    schmidt_count,
    to_echelon,
)
from latrank.zlattice import direct_sum, hadamard_ratio, short_vectors, \
    shortest_nonzero_sqnorm
from tests_support import jacobian, matrix_module_index


def report(crit: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {crit}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def QQ():
    return lr.rationals()


@pytest.fixture(scope="module")
def Qi():
    return lr.make_field([1, 0, 1])


@pytest.fixture(scope="module")
def Qs5():
    return lr.make_field([-5, 0, 1],
                         integral_basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


@pytest.mark.parametrize("p,n,s,m", [(2, 2, 1, 1), (2, 3, 2, 2), (3, 3, 2, 2)])
@pytest.mark.parametrize("radius", [Fraction(6, 5), Fraction(3, 2)])
def test_criterion_1_exact_moment_identity(QQ, p, n, s, m, radius):
    t0 = time.monotonic()
    P = QQ.prime_above(p)
    g = ball(radius)
    lhs = moment_lhs(QQ, P, n, s, m, g, mode="exact")
    strat = moment_stratified(QQ, P, n, s, m, g)
    elapsed = time.monotonic() - t0
    ok = isinstance(lhs, Fraction) and lhs == strat and elapsed < 60
    assert report("1", ok,
                  f"(p,n,s,m,R)=({p},{n},{s},{m},{radius}): "
                  f"lhs={lhs} stratified={strat} [{elapsed:.1f}s]")


def test_criterion_2_convergence_k1(QQ):
    t0 = time.monotonic()
    f = ball(1)
    c1 = c1_estimate(QQ, 3, 2, 1, f, 200).partial_sum
    errs = {}
    for T in (10, 40):
        rep = lhs_count(QQ, 3, 2, 1, T, f)
        errs[T] = abs(rep.normalized - c1)
    elapsed = time.monotonic() - t0
    ok = errs[40] <= 0.1 * c1 and errs[40] < errs[10] and elapsed < 300
    assert report("2a", ok,
                  f"k=1: c1(200)={c1:.4f} err(10)={errs[10]:.4f} "
                  f"err(40)={errs[40]:.4f} tol={0.1 * c1:.4f} [{elapsed:.1f}s]")


def test_criterion_2_convergence_k2(QQ):
    t0 = time.monotonic()
    f = ball(1)
    c1 = c1_estimate(QQ, 3, 2, 2, f, 200).partial_sum
    errs = {}
    for T in (4, 8):
        rep = lhs_count(QQ, 3, 2, 2, T, f)
        errs[T] = abs(rep.normalized - c1)
    elapsed = time.monotonic() - t0
    ok = all(errs[T] <= 0.2 * c1 for T in (4, 8)) and elapsed < 300
    assert report("2b", ok,
                  f"k=2: c1={c1:.4f} err(4)={errs[4]:.4f} err(8)={errs[8]:.4f} "
                  f"tol={0.2 * c1:.4f} [{elapsed:.1f}s]")


def test_criterion_3_decomposition_identity(QQ):
    f = ball(1)
    details = []
    ok = True
    for k in (1, 2):
        for T in (2, 4):
            a = lhs_count(QQ, 3, 2, k, T, f, method="direct").raw_sum
            b = lhs_count(QQ, 3, 2, k, T, f, method="stratified").raw_sum
            details.append(f"k{k}T{T}:{int(a)}")
            ok = ok and a == b and float(a).is_integer()
    assert report("3", ok, "direct == stratified exactly: " + " ".join(details))


@pytest.mark.parametrize("n,m", [(4, 2), (3, 2)])
def test_criterion_4_zeta_identities(QQ, n, m):
    t0 = time.monotonic()
    _, _, rel_p = primitive_zeta_check(n, m, 100)
    _, _, rel_k = koecher_identity_check(QQ, n, m, 100)
    elapsed = time.monotonic() - t0
    ok = rel_p < 1e-3 and rel_k < 1e-3 and elapsed < 60
    assert report("4", ok,
                  f"(n,m)=({n},{m}): primitive-zeta rel={rel_p:.2e} "
                  f"koecher rel={rel_k:.2e} tol=1e-3 [{elapsed:.1f}s]")


def test_criterion_5_schmidt_growth_window(QQ):
    counts = {}
    for T in (5, 10, 20, 40):
        counts[T] = schmidt_count(QQ, 1, 2, T)
        brute = sum(
            1 for a in range(-T, T + 1) for b in range(-T, T + 1)
            if (a, b) != (0, 0) and a * a + b * b <= T * T
            and math.gcd(abs(a), abs(b)) == 1) // 2
        assert counts[T] == brute
    ratios = [counts[2 * T] / counts[T] for T in (5, 10, 20)]
    ok = all(2.5 <= r <= 5.5 for r in ratios)
    assert report("5", ok, f"counts={counts} ratios={[f'{r:.3f}' for r in ratios]}")


def test_criterion_6_unit_covolume(QQ, Qi, Qs5):
    worst = 0.0
    for fld, name in ((QQ, "Q"), (Qi, "Q(i)"), (Qs5, "Q(sqrt5)")):
        for r in (1, 2, 3):
            L = okn_lattice(fld, r)
            emb = np.array([fld.minkowski_embed(L.kvector_of_coords(c))
                            for c in np.eye(L.rank, dtype=int)])
            covol = abs(np.linalg.det(emb))
            worst = max(worst, abs(covol - 1.0))
            assert L.height_sq() == lr.PowerProduct.coerce(1)
    ok = worst < 1e-10
    assert report("6", ok, f"max |covol - 1| = {worst:.2e} over 9 field/rank pairs")


def test_criterion_7_hecke_covolume_and_count(QQ):
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for p in (2, 3, 5):
        P = QQ.prime_above(p)
        for n in (2, 3, 4):
            base = okn_lattice(QQ, n)
            for s in range(n + 1):
                keys = set()
                for S in enumerate_subspaces(s, n, p):
                    hl = hecke_neighbor(QQ, P, S, base=base)
                    worst = max(worst, abs(hl.covolume() - 1.0))
                    keys.add(tuple(tuple(x for x in row) for row in hl.lattice.basis))
                ok = ok and len(keys) == gaussian_binomial(s, n, p)
    elapsed = time.monotonic() - t0
    ok = ok and worst < 1e-10
    assert report("7", ok,
                  f"max |covol-1|={worst:.2e}, neighbor counts match Gaussian "
                  f"binomials for p in (2,3,5), n <= 4 [{elapsed:.1f}s]")


def test_criterion_8_moment_convergence_trend(QQ):
    t0 = time.monotonic()
    g = ball(Fraction(6, 5))
    rhs, _, rhs_err = moment_rhs_limit(QQ, 3, 2, g, 60, mc_samples=60000, seed=101)
    err5 = abs(float(moment_lhs(QQ, QQ.prime_above(5), 3, 2, 2, g)) - rhs)
    m31, _ = moment_lhs(QQ, QQ.prime_above(31), 3, 2, 2, g, mode="sampled",
                        sample_count=2000, seed=101)
    err31 = abs(m31 - rhs)
    elapsed = time.monotonic() - t0
    ok = err31 < err5 and elapsed < 600
    assert report("8", ok,
                  f"rhs(60)={rhs:.3f} (mc err {rhs_err:.3f}) err(p=5)={err5:.3f} "
                  f"err(p=31)={err31:.3f} [{elapsed:.1f}s]")


def test_criterion_9_containment_law():
    worst = 0.0
    for q in (2, 3, 5, 7, 11, 13):
        for n in range(1, 6):
            for s in range(n + 1):
                for k in range(s + 1):
                    pr = containment_probability(k, s, n, q)
                    eps = abs(float(pr) * q ** (k * (n - s)) - 1.0)
                    worst = max(worst, eps * q)
                    assert eps <= 3.0 / q
    assert report("9", True, f"max |eps|*q = {worst:.3f} <= 3 over all (q,k,s,n), n<=5")


def test_criterion_10_invariant_suites(QQ, Qi):
    failures = []

    # trijection round trips
    for K, bound in ((QQ, 4), (Qi, 2)):
        for P in enumerate_primitive_modules(K, 1, 2, bound):
            if lr.echelon_of_module(P.lattice).key() != P.echelon.key():
                failures.append("trijection")
    for P in enumerate_primitive_modules(QQ, 2, 3, 2):
        if lr.echelon_of_module(P.lattice).key() != P.echelon.key():
            failures.append("trijection-k2")

    # index identity and height power law and Jacobian
    for K, rows in ((QQ, [[1, Fraction(1, 2)]]),
                    (QQ, [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]]),
                    (Qi, [[1, Fraction(1, 2)]])):
        D = to_echelon(K, rows)
        P = lambda_of(D)
        for n in (1, 2):
            if matrix_module_index(D, n) != P.denominator ** n:
                failures.append("index-identity")
        for n in (1, 2, 3):
            if abs(direct_sum(P.lattice, n).height() - P.height ** n) > 1e-10:
                failures.append("height-power")
        if abs(P.denominator * jacobian(D) - P.height) > 1e-10:
            failures.append("jacobian")

    # Hadamard ratio >= 1 on random bases
    rng = np.random.default_rng(5)
    done = 0
    while done < 20:
        rows = rng.integers(-5, 6, size=(2, 3))
        if np.linalg.matrix_rank(rows) < 2:
            continue
        L = lr.ZLattice(rows.tolist(), lr.Ambient.standard(3))
        if hadamard_ratio(L) < 1 - 1e-12:
            failures.append("hadamard")
        done += 1

    # Minkowski first-minimum bound with c = 2^(r/2)
    done = 0
    while done < 15:
        rows = rng.integers(-5, 6, size=(2, 2))
        if abs(np.linalg.det(rows)) < 1:
            continue
        L = lr.ZLattice(rows.tolist(), lr.Ambient.standard(2))
        lam1 = math.sqrt(float(shortest_nonzero_sqnorm(L)))
        if lam1 > 2 ** (L.rank / 2) * L.height() ** (1 / L.rank) + 1e-9:
            failures.append("minkowski")
        done += 1

    # short vectors match a box brute force
    from tests_support import brute_force_short

    done = 0
    while done < 10:
        r = int(rng.integers(1, 4))
        rows = rng.integers(-5, 6, size=(r, r))
        if np.linalg.matrix_rank(rows) < r:
            continue
        L = lr.ZLattice(rows.tolist(), lr.Ambient.standard(r))
        radius = int(rng.integers(2, 6))
        got = [tuple(v) for v in short_vectors(L, radius).tolist()]
        if got != brute_force_short(L, Fraction(radius) ** 2):
            failures.append("short-vectors")
        done += 1

    # rank-drop bound, exhaustive for (n,m) = (2,2), entries within norm 10
    for p in (2, 3, 5):
        P = QQ.prime_above(p)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    for d in range(-3, 4):
                        if a * a + b * b + c * c + d * d > 100:
                            continue
                        _, _, ok, _ = rank_drop_check(QQ, [[a, b], [c, d]], P)
                        if not ok:
                            failures.append(f"rank-drop p={p}")

    ok = not failures
    assert report("10", ok, "zero failures" if ok else f"failures: {set(failures)}")

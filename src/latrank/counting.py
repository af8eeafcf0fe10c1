"""Both sides of the fixed-rank counting law.

The left side sums an admissible test function over rank-k integral matrices,
scaled by 1/T.  The right side is a series over echelon matrices D of
denominator-weighted subspace integrals; its truncations converge to the
leading constant of the T^{knd} growth law.  The module also provides the
rank-one zeta identities that tie the series to classical zeta values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import intmat, kernels
from .errors import ValidationError
from .exactval import PowerProduct
from .modules import (
    ModuleSet,
    PrimitiveModule,
    _distinct_rows,
    _modules,
    _okm_form,
    _span_keys,
    enumerate_primitive_modules,
    span_modules,
)
from .numfield import NumberField, ranks_over_K, unflatten_kvector
from .zlattice import (
    ZLattice,
    _filter_exact,
    _int_norms,
    _LLL_DELTA,
    _lll_transform,
    _norm_bound,
    _quotient_floats,
    direct_sum,
    okn_lattice,
    short_vectors,
    unit_ball_volume,
)


# -- test functions -------------------------------------------------------------


class TestFunction:
    """Bounded compactly supported test function f on n x m matrix space.

    A job a subclass does not override is unsupported and raises ValueError here.
    """

    def column_radii(self, m: int):
        raise ValueError("only a product of balls has per-column radii")

    def support_cover(self, T, m: int):
        """Exact R >= T * (support radius on m columns); T rational or a PowerProduct."""
        return Fraction(self.support_radius).limit_denominator(10 ** 12) * T * Fraction(1001, 1000)

    def rank_k_sum(self, raw, lat, coords, hit, n: int, m: int, T):
        """raw plus the sum of f(A/T) over the enumerated matrices A flagged in hit."""
        raise ValueError("counts take ball, product-of-balls or custom test functions")

    def module_sum(self, raw, P: PrimitiveModule, n: int, k: int, T, RT):
        """(raw plus the sum of f(A/T) over the rank-k n x m matrices A with rows
        in P's Lambda_D, the number of matrices of Lambda_D^n of norm <= RT).

        Enumerates Lambda_D^n, a lattice of rank n d P.k, and ranks every matrix.
        """
        lam = P.lattice
        d = P.field.degree
        stacked = direct_sum(lam, n)
        coords = short_vectors(stacked, RT)
        # A = X D with X = A[:, pivots], as D is the identity on its pivot
        # columns, so rank_K A = rank_K X: rank the pivot columns only
        pivots = [p * d + b for p in P.pivot_cols for b in range(d)]
        piv_basis = [[row[j] for j in pivots] for row in lam.basis]
        ranks = ranks_over_K(P.field, coords.reshape(len(coords), n, lam.rank), piv_basis)
        return self.rank_k_sum(raw, stacked, coords, ranks == k, n, P.m, T), len(coords)

    def modules_sum(self, modules, n: int, k: int, T, RT):
        """(the sum of f(A/T) over the rank-k n x m matrices A with rows in the
        Lambda_D of one of the modules, the number of n-tuples of Lambda_D
        vectors of norm <= RT summed over the modules): module_sum on each."""
        raw = seen = 0
        for P in modules:
            raw, tuples = self.module_sum(raw, P, n, k, T, RT)
            seen += tuples
        return raw, seen

    def module_term(self, P: PrimitiveModule, n: int, mc_samples: int, seed) -> TermValue:
        """D(D)^(-n) * integral of f(x D), by Monte Carlo (`_mc_term`)."""
        return _mc_term(self, P, n, mc_samples, seed)

    def module_terms(self, modules, n: int, mc_samples: int, entropy: tuple):
        """(values, stderrs) of the terms of the modules, in their order:
        term_value_detail on each, module i's Monte Carlo stream seeded from
        the tuple (*entropy, i)."""
        values, stderrs = [], []
        for i, P in enumerate(modules):
            tv = term_value_detail(P, n, self, mc_samples=mc_samples, seed=(*entropy, i))
            values.append(tv.value)
            stderrs.append(tv.stderr)
        return values, stderrs

    def column_product(self, m: int, d: int) -> "TestFunction":
        """x -> prod_j f(column j of x) as a test function on n x m matrices."""
        raise ValueError("moment limits take ball or custom g")

    def at_zero(self, n: int, d: int) -> float:
        """f at the zero vector of K_R^n; every ball contains it."""
        return 1.0

    def lattice_points(self, lat: ZLattice, t_sq: PowerProduct):
        """(coords, values): the vectors v of lat where g(v/T) may be nonzero, T^2 = t_sq.

        values holds g(v/T) per row of coords, or is None for an indicator,
        which is 1 on every row.
        """
        raise ValueError("lattice sums support ball and custom test functions")

    def points_inside(self, lat: ZLattice, T) -> np.ndarray:
        """Coordinates of the vectors v of lat with f(v/T) = 1, f = 0 elsewhere."""
        raise ValueError("the exact identity is implemented for ball test functions")


@dataclass(frozen=True)
class Ball(TestFunction):
    """Indicator of the Frobenius ball of the given radius."""

    radius: Fraction

    def support_cover(self, T, m: int):
        return self.radius * T

    def modules_sum(self, modules: ModuleSet, n: int, k: int, T, RT):
        """As TestFunction.modules_sum, from theta tables (`_ball_tuple_counts`).

        A matrix of rank i < j in the ball of a K-rank j Lambda_D has rows
        spanning one saturated rank-i submodule of it, spanned by vectors of
        norm <= RT (`_span_keys`), so the module's tuples of rank j are its
        theta count less the zero tuple and the full-rank tuples of those
        submodules, i = 1, ..., j - 1: a Möbius recursion over the rank,
        memoized by echelon key: only keys not yet counted go through the
        module data pass, unsorted, as the sums are exact.  A module of K-rank
        above k (O_K^m in the direct count at k < m) sums its rank-k
        submodules; every module's matrices_seen is its own theta count.
        """
        exact = {}      # echelon key -> its module's count of tuples of full K-rank

        def total(lat, i):
            keys = _span_keys(lat, i, RT)
            rows = list(map(tuple, keys.tolist()))
            new = [j for j, key in enumerate(rows) if key not in exact]
            mods = _modules(lat.ambient.field, i, keys[new], lat.ambient)
            for j, t in enumerate(_ball_tuple_counts(mods, n, RT)):
                exact[rows[new[j]]] = full_rank(mods, j, t)
            return sum(exact[key] for key in rows)

        def full_rank(mods, i, t):
            return t - 1 - sum(total(mods[i].lattice, j) for j in range(1, mods.k))

        thetas = _ball_tuple_counts(modules, n, RT)
        raw = sum(full_rank(modules, i, t) if modules.k == k else total(modules[i].lattice, k)
                  for i, t in enumerate(thetas))
        return raw, sum(thetas)

    def module_term(self, P: PrimitiveModule, n: int, mc_samples: int, seed) -> TermValue:
        (val,) = self._terms([float(P.height_sq)], P.k * P.field.degree, n)
        return TermValue(value=val, stderr=0.0, method="closed_form")

    def module_terms(self, modules: ModuleSet, n: int, mc_samples: int, entropy: tuple):
        """As TestFunction.module_terms, from the float H^2 of the module set."""
        values = self._terms(modules.hsq.tolist(), modules.k * modules.field.degree, n)
        return values, [0.0] * len(values)

    def _terms(self, hsq: list, kd: int, n: int) -> list:
        """The closed form H^(-n) V(s) R^s, s = k d n, for each float H^2 of hsq."""
        s = kd * n
        e, vol, rs = -n / 2.0, unit_ball_volume(s), float(self.radius) ** s
        return [h ** e * vol * rs for h in hsq]

    def column_product(self, m: int, d: int) -> TestFunction:
        return product_of_balls(self.radius, m)

    def lattice_points(self, lat: ZLattice, t_sq: PowerProduct):
        return self.points_inside(lat, t_sq.sqrt()), None

    def points_inside(self, lat: ZLattice, T) -> np.ndarray:
        return short_vectors(lat, self.support_cover(T, 1))


@dataclass(frozen=True)
class ProductOfBalls(TestFunction):
    """Product of per-column Frobenius ball indicators; one radius is broadcast."""

    radii: tuple

    @property
    def support_radius(self) -> float:
        return self._support_radius(len(self.radii))

    def _support_radius(self, m: int) -> float:
        return math.sqrt(sum(float(r) ** 2 for r in self.column_radii(m)))

    def column_radii(self, m: int):
        if len(self.radii) == m:
            return self.radii
        if len(self.radii) == 1:
            return self.radii * m
        raise ValueError(f"need {m} column radii, got {len(self.radii)}")

    def support_cover(self, T, m: int):
        sq = sum(r ** 2 for r in self.column_radii(m))
        root = Fraction(math.isqrt(sq.numerator * sq.denominator), sq.denominator)
        while root * root < sq:   # exact rational cover of sqrt(sq)
            root += Fraction(1, 1000)
        return root * T

    def rank_k_sum(self, raw, lat, coords, hit, n: int, m: int, T):
        # an indicator: its sums stay exact Python ints.  Column j of A has
        # squared norm scale_sq q_j / den, with q_j the integer norm under the
        # Gram of lat's integer basis B_j, B with every coordinate outside
        # column j's entries set to 0: the ambient form restricted to them
        amb = lat.ambient
        d = amb.field.degree
        bden, B = intmat._integral(lat.basis)
        fden, form = intmat._integral(amb.form)
        B, form = np.array(B, dtype=object), np.array(form, dtype=object)
        den = bden * bden * fden
        x = coords[hit]
        inside = np.ones(len(x), dtype=bool)
        for j, r in enumerate(self.column_radii(m)):
            cols = [t * m * d + j * d + b for t in range(n) for b in range(d)]
            B_j = np.zeros_like(B)
            B_j[:, cols] = B[:, cols]
            gram = (B_j @ form @ B_j.T).tolist()
            inside &= _filter_exact(x, gram, _norm_bound(r * T, amb.scale_sq, den))
        return raw + int(np.count_nonzero(inside))

    def module_term(self, P: PrimitiveModule, n: int, mc_samples: int, seed) -> TermValue:
        """As TestFunction.module_term: `_closed_forms` on P alone, and
        Monte Carlo (`_mc_term`) where it has none."""
        (val,) = self._closed_forms(np.array([P._hermite], dtype=object), P._ambient, P.k,
                                    [float(P.height_sq)], n)
        if val is None:
            return _mc_term(self, P, n, mc_samples, seed)
        return TermValue(value=val, stderr=0.0, method="closed_form")

    def module_terms(self, modules: ModuleSet, n: int, mc_samples: int, entropy: tuple):
        """As TestFunction.module_terms: `_closed_forms` on the module set,
        and `_mc_term` on each module without one, in module order."""
        values = self._closed_forms(modules.S, modules.ambient, modules.k,
                                    modules.hsq.tolist(), n)
        stderrs = [0.0] * len(values)
        for i, val in enumerate(values):
            if val is None:
                tv = _mc_term(self, modules[i], n, mc_samples, (*entropy, i))
                values[i], stderrs[i] = tv.value, tv.stderr
        return values, stderrs

    def _closed_forms(self, S: np.ndarray, ambient, k: int, hsq: list, n: int) -> list:
        """Per module of K-rank k with Hermite basis S[i] (see
        `_similarity_radii_sq`) and float H^2 hsq[i], the closed form of
        D(D)^(-n) * integral of f(x D) where the integral is the volume of a
        ball, and None elsewhere.

        At K-rank m (O_K^m) the orthonormal frame of the row space is square,
        so the integral is the product of the n d-dimensional column balls.
        When every column block of the frame is a similarity c_j of the row
        space, column j of x D has squared norm c_j ||x||^2, so the support
        is the ball ||x|| <= rho of dimension n k d.  No lattice is built for
        either.  Each value is H^(-n) V(s) rho^s in Python floats, from the
        float of rho^2 rounded once, correctly.
        """
        d = ambient.field.degree
        m = ambient.dim // d
        radii = self.column_radii(m)
        s = n * d
        e = -n / 2.0
        if k == m:
            vol = math.prod(unit_ball_volume(s) * float(r) ** s for r in radii)
            return [h ** e * vol for h in hsq]
        similar, num, den, bound = _similarity_radii_sq(S, ambient, radii)
        s *= k
        vol, half = unit_ball_volume(s), s / 2.0
        out = [None] * len(hsq)
        idx = np.flatnonzero(similar)
        for i, rho_sq in zip(idx.tolist(), _quotient_floats(num[idx], den[idx], bound).tolist()):
            out[i] = hsq[i] ** e * vol * rho_sq ** half
        return out

    def _sample_values(self, pts, q, m: int, d: int) -> np.ndarray:
        radii = np.array([float(r) for r in self.column_radii(m)])
        return _inside_product_of_balls(pts, q, radii ** 2, d).astype(float)


@dataclass(frozen=True)
class Custom(TestFunction):
    """Evaluator on the embedded real matrix, zero outside its Frobenius support radius."""

    evaluator: Callable
    support_radius: float

    def _support_radius(self, m: int) -> float:
        return self.support_radius

    def rank_k_sum(self, raw, lat, coords, hit, n: int, m: int, T):
        field = lat.ambient.field
        d = field.degree
        for c in coords[hit].tolist():
            amb = lat.to_ambient(c)
            rows = [unflatten_kvector(field, list(amb[t * m * d:(t + 1) * m * d]))
                    for t in range(n)]
            emb = np.array([np.concatenate([field.embed_element(x) for x in row])
                            for row in rows])
            raw += float(self.evaluator(emb / float(T)))
        return raw

    def _sample_values(self, pts, q, m: int, d: int) -> np.ndarray:
        emb = pts @ q.T                      # (N, n, m d) rows in ambient frame
        return np.array([float(self.evaluator(emb[i])) for i in range(len(pts))])

    def column_product(self, m: int, d: int) -> TestFunction:
        def evaluator(emb):
            # emb has shape (n, m*d); column j of the K-matrix is the j-th d-block
            val = 1.0
            for j in range(m):
                col = emb[:, j * d:(j + 1) * d].ravel()
                val *= float(self.evaluator(col))
                if val == 0.0:
                    return 0.0
            return val

        return custom(evaluator, math.sqrt(m) * self.support_radius)

    def at_zero(self, n: int, d: int) -> float:
        return float(self.evaluator(np.zeros(n * d)))

    def lattice_points(self, lat: ZLattice, t_sq: PowerProduct):
        coords = short_vectors(lat, self.support_cover(t_sq.sqrt(), 1))
        inv_t = 1.0 / math.sqrt(float(t_sq))
        values = [float(self.evaluator(lat.ambient.embed(lat.to_ambient(c)) * inv_t))
                  for c in coords.tolist()]
        return coords, np.array(values, dtype=float)


def _positive_radius(radius):
    if not radius > 0:
        raise ValueError(f"test function radius must be positive, got {radius}")
    return radius


def ball(radius) -> TestFunction:
    return Ball(_positive_radius(Fraction(radius)))


def product_of_balls(radius, m: int | None = None) -> TestFunction:
    if isinstance(radius, (list, tuple)):
        radii = tuple(_positive_radius(Fraction(r)) for r in radius)
    else:
        radii = (_positive_radius(Fraction(radius)),) * (m or 1)
    return ProductOfBalls(radii)


def custom(evaluator: Callable, support_radius: float) -> TestFunction:
    return Custom(evaluator, _positive_radius(support_radius))


# -- reports ----------------------------------------------------------------------


@dataclass
class RankCountReport:
    T: Fraction
    raw_sum: float          # integer-valued for indicator test functions
    normalized: float       # raw_sum / T^(k n d)
    # the n-tuples of Lambda_D vectors of norm <= R T, summed over the
    # modules: the matrices the enumeration of each Lambda_D^n sees, which a
    # ball reads from the theta table of Lambda_D's Gram class without
    # enumerating them
    matrices_seen: int
    method: str


@dataclass
class TermValue:
    value: float
    stderr: float
    method: str


@dataclass
class C1Estimate:
    n: int
    m: int
    k: int
    cutoff: float
    partial_sum: float
    term_count: int
    tail_estimate: float    # heuristic, never folded into partial_sum
    mc_stderr: float
    terms: list = dc_field(default_factory=list)


# -- left side: one module sum ------------------------------------------------------


def lhs_count(field: NumberField, n: int, m: int, k: int, T, f: TestFunction,
              method: str = "auto", threads: int | None = None) -> RankCountReport:
    """Sum of f(A/T) over integral n x m matrices of rank exactly k.

    Both methods hand one list of primitive modules, each the Lambda_D that
    holds the rows of its matrices, to f.modules_sum.  "direct" takes the
    one rank-m module O_K^m, whose Lambda_D^n holds every integral matrix;
    "stratified" takes the modules Lambda_D of rank k that carry the rank-k
    matrices.  A ball ranks no matrix: it counts every module from theta
    tables, one per Gram class of Lambda_D up to scale
    (`_ball_tuple_counts`), less the counts of its submodules of lower rank
    (`Ball.modules_sum`); product-of-balls and custom test functions
    enumerate each Lambda_D^n and rank every matrix.  The two methods agree
    exactly (tested), so "auto" picks by cost.  `threads` is accepted for
    compatibility and has no effect.
    """
    if not (n > m >= k >= 1):
        raise ValueError("need n > m >= k >= 1")
    T = Fraction(T)
    if T < 1:
        raise ValueError("need T >= 1")
    if method == "auto":
        method = "direct" if k == m else "stratified"
    RT = f.support_cover(T, m)
    if method == "direct":
        # O_K^m, with every column a pivot: its Lambda_D^n is O_K^(nm)
        modules = enumerate_primitive_modules(field, m, m, 1)
    elif method == "stratified":
        # a counted matrix has k K-independent rows in its Lambda_D, each of
        # norm <= RT, so Lambda_D is spanned by k independent such vectors of O_K^m
        modules = span_modules(okn_lattice(field, m), k, RT)
    else:
        raise ValueError(f"unknown method {method!r}")
    raw, seen = f.modules_sum(modules, n, k, T, RT)
    return _report(T, raw, seen, k * n * field.degree, method)


def _report(T, raw, seen: int, knd: int, method: str) -> RankCountReport:
    # indicator counts are summed as Python ints and converted here, once
    raw = float(raw)
    return RankCountReport(T=T, raw_sum=raw, normalized=raw / float(T) ** knd,
                           matrices_seen=seen, method=method)


# -- left side: ball counts from theta series ------------------------------------------


def _truncated_product(av, ac, bv, bc, X: int):
    """The series (av, ac) times (bv, bc), terms of degree <= X only.

    A series is its sorted distinct degrees and their coefficients.  The
    outer product is formed for at most kernels._BLOCK pairs at a time: a
    block of av's degrees against all of bv, merged into the running result.
    """
    step = max(1, kernels._BLOCK // len(bv))
    deg, coef = av[:0], ac[:0]
    for s in range(0, len(av), step):
        bdeg = (av[s:s + step, None] + bv[None, :]).ravel()
        bcoef = (ac[s:s + step, None] * bc[None, :]).ravel()
        keep = bdeg <= X
        deg = np.concatenate((deg, bdeg[keep]))
        coef = np.concatenate((coef, bcoef[keep]))
        order = np.argsort(deg, kind="stable")
        deg, coef = deg[order], coef[order]
        starts = np.flatnonzero(np.r_[True, deg[1:] != deg[:-1]])
        deg, coef = deg[starts], np.add.reduceat(coef, starts)
    return deg, coef


def _gauss_reduced(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Per entry of the integer arrays, the reduced Gram (a0, b0, c0) with
    0 <= 2 b0 <= a0 <= c0 GL_2(Z)-equivalent to the positive definite form
    ((a, b), (b, c)) (Gauss reduction), which a further step leaves as it is;
    as |b| < max(a, c) and |r a| <= |b| + a, every value is below 8 max(a, c)."""
    dtype = kernels.int_dtype(8 * max(int(np.max(a)), int(np.max(c))))
    a, b, c = a.astype(dtype), b.astype(dtype), c.astype(dtype)
    while True:
        r = (2 * b + a) // (2 * a)      # the nearest integer to b / a
        b, c = b - r * a, c - r * (2 * b - r * a)
        if (a <= c).all():
            return a, np.abs(b), c
        a, c = np.minimum(a, c), np.maximum(a, c)


def _class_keys(gram: np.ndarray):
    """(c, G0): per integer Gram G of a (B, r, r) array, its content c and its
    class key G0, a reduced Gram over c, as a (B,) and a (B, w) array: [[1]]
    at r = 1, the Gauss-reduced form at r = 2, and beyond U G U^T flattened,
    U from zlattice._lll_transform on G, one Gram at a time.  Every norm of
    G is c times one of G0, so modules with one key have one theta series in
    q / c; isometric modules with unequal keys only cost a second table."""
    r = gram.shape[1]
    if r == 1:
        return gram[:, 0, 0], np.ones((len(gram), 1), dtype=np.int64)
    if r == 2:
        a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
        g = np.gcd(np.gcd(a, b), c)
        return g, np.column_stack(_gauss_reduced(a // g, b // g, c // g))
    red = [sum(intmat.mat_mul(intmat.mat_mul(U, G), intmat.transpose(U)), [])
           for G, U in ((G, _lll_transform(G, _LLL_DELTA)) for G in gram.tolist())]
    content = [math.gcd(*row) for row in red]
    keys = [[x // g for x in row] for row, g in zip(red, content)]
    dtype = kernels.int_dtype(max(abs(x) for row in keys for x in row))
    return np.array(content, dtype=gram.dtype), np.array(keys, dtype=dtype)


def _ball_tuple_counts(modules: ModuleSet, n: int, radius) -> list:
    """Per module, the number of n-tuples of Lambda_D vectors whose squared
    norms sum to <= radius^2: one cumulative theta table per class key.

    The theta series of Lambda_D^n is the n-th power of Lambda_D's (Conway
    and Sloane, SPLAG ch. 2).  A module's tuples are those whose integer
    norms sum to at most X of `_norm_bound`, one per distinct gram_den; with
    q = c q0 (`_class_keys` of the set's gram_int) that is q0 <= Y =
    floor(X / c).  Per class, one `short_vectors` call on the member with
    the largest Y, the one entry built, its norms over c, n - 1 truncated
    products up to that Y and a cumsum give the table, and each member's
    count is one lookup at its Y.  The norms have room for a sum of two, at
    most 2 Y; every count is at most (vectors)^n, which int_dtype holds."""
    if not len(modules):
        return []
    dens, at = np.unique(modules.gram_den, return_inverse=True)
    X = [_norm_bound(radius, modules.field.scale_sq, g) for g in dens.tolist()]
    content, keys = _class_keys(modules.gram_int)
    Y = np.array(X, dtype=kernels.int_dtype(max(X)))[at] // content
    order, starts = _distinct_rows(keys)
    counts = np.zeros(len(modules), dtype=object)
    for members in np.split(order, starts[1:]):
        i = int(members[np.argmax(Y[members])])
        c, y = int(content[i]), int(Y[i])
        lat = modules[i].lattice
        coords = short_vectors(lat, radius)
        norms, hist = np.unique(_int_norms(coords, lat.gram_int, 2 * y) // c,
                                return_counts=True)
        hist = hist.astype(kernels.int_dtype(len(coords) ** n))
        deg, coef = norms, hist
        for _ in range(n - 1):
            deg, coef = _truncated_product(deg, coef, norms, hist, y)
        # deg[0] = 0 <= every Y
        counts[members] = np.cumsum(coef)[np.searchsorted(deg, Y[members].astype(deg.dtype),
                                                          side="right") - 1]
    return counts.tolist()


# -- right side: per-module subspace integrals ----------------------------------------


def _gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), exact, for u = 2^-53 the float64 unit roundoff."""
    ku = Fraction(k, 2 ** 53)
    return ku / (1 - ku)


@functools.lru_cache(maxsize=None)
def _margin_constant(n: int, kd: int, d: int) -> float:
    """Float c >= gamma_M n / (1 - gamma_t); see `_decision_window`."""
    p = kd * (kd + 1) // 2
    exact = _gamma(2 * kd + n * d + n + d + p) * n / (1 - _gamma(2 * kd + d + 1))
    c = float(exact)
    return c if Fraction(c) >= exact else math.nextafter(c, math.inf)


def _decision_window(pts: np.ndarray, q: np.ndarray, radii_sq: np.ndarray, d: int):
    """Floats (lo_j, hi_j) around radii_sq[j] outside which the proposal decides.

    Let S_j = sum_i ||Q_j x_i||^2 be the exact column-j value of an n x kd
    sample x (rows x_i) against the d x kd block Q_j of the frame q, and
    A_j = sum_i sum_c (sum_l |x_il| |q_cl|)^2.  Without underflow (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3, gamma_k; every
    summand is a product of these entries, so any summation order and fused
    multiply-adds obey the bound):

    - the reference (kd-term inner products, squared, summed over n d
      entries) is within gamma_(2kd + nd) A_j of S_j;
    - the proposal (n-term row products P_ab, the d-term entries of
      G_j = Q_j^T Q_j, and a sum over the p = kd(kd+1)/2 pairs a <= b) is
      within gamma_(n + d + p) A_j of S_j.

    With |x_il| <= xmax, A_j <= n xmax^2 B_j, B_j = sum_c (sum_l |q_cl|)^2,
    so both differ by at most gamma_M n xmax^2 B_j, M the sum of the two
    indices (gamma_a + gamma_b <= gamma_(a+b)).  Evaluating xmax^2 B_j in
    floats takes t = 2kd + d + 1 roundings of non-negative values, which
    lose at most a factor 1 - gamma_t; `_margin_constant` absorbs it.  The
    window is rounded outward, so a proposal below lo_j means
    reference < radii_sq[j] and one above hi_j means reference > radii_sq[j].
    """
    _, n, kd = pts.shape
    xmax = max(float(pts.max()), -float(pts.min()))
    b = (np.abs(q).sum(axis=1) ** 2).reshape(-1, d).sum(axis=1)
    margin = (_margin_constant(n, kd, d) * (xmax * xmax) * b).tolist()
    radii = radii_sq.tolist()
    return ([math.nextafter(t - e, -math.inf) for t, e in zip(radii, margin)],
            [math.nextafter(t + e, math.inf) for t, e in zip(radii, margin)])


def _column_sq_norms(pts: np.ndarray, q: np.ndarray, d: int, m: int) -> np.ndarray:
    """Reference (N, m) squared column norms of the embedded samples pts @ q.T."""
    emb = pts @ q.T                          # (N, n, m d) rows in ambient frame
    colsq = np.zeros((pts.shape[0], m))
    for j in range(m):
        block = emb[:, :, j * d:(j + 1) * d]
        colsq[:, j] = np.einsum("nij,nij->n", block, block)
    return colsq


def _inside_product_of_balls(pts: np.ndarray, q: np.ndarray, radii_sq: np.ndarray,
                             d: int) -> np.ndarray:
    """Boolean mask: colsq <= radii_sq in every column, colsq as `_column_sq_norms`.

    Floats propose: the column-j value is the quadratic form
    sum_(a <= b) w_ab G_j[a, b] P_ab (w = 1 on the diagonal, 2 off it) with
    G_j = Q_j^T Q_j and P_ab = sum_i x_ia x_ib, evaluated with length-N vector
    operations.  A sample whose proposal lies outside `_decision_window` in
    some column, or below it in every column, is decided by the proposal; the
    rest are recomputed with the reference expression, which decides.  The
    mask equals the reference's bit for bit.
    """
    N, n, kd = pts.shape
    m = radii_sq.shape[0]
    x = pts.reshape(N, n * kd)
    pairs = list(zip(*np.triu_indices(kd)))
    prods = []
    for a, b in pairs:
        acc = x[:, a] * x[:, b]
        for i in range(1, n):
            acc += x[:, i * kd + a] * x[:, i * kd + b]
        prods.append(acc)
    blocks = q.reshape(m, d, kd)
    gram = np.einsum("jca,jcb->jab", blocks, blocks)
    lo, hi = _decision_window(pts, q, radii_sq, d)
    for j in range(m):
        w = [gram[j, a, b] * (1.0 if a == b else 2.0) for a, b in pairs]
        prop = w[0] * prods[0]
        for wp, pp in zip(w[1:], prods[1:]):
            prop += wp * pp
        if j == 0:
            inside, maybe = prop < lo[0], prop <= hi[0]
        else:
            inside &= prop < lo[j]
            maybe &= prop <= hi[j]
    undecided = np.flatnonzero(inside != maybe)
    if undecided.size:
        colsq = _column_sq_norms(pts[undecided], q, d, m)
        inside[undecided] = np.all(colsq <= radii_sq[None, :], axis=1)
    return inside


def _similarity_radii_sq(S: np.ndarray, ambient, radii):
    """(similar, num, den, bound): per module of a Hermite array S, whether
    every column block of Lambda_D's row space is a similarity c_j of it,
    and then rho^2 = min over c_j > 0 of r_j^2 / c_j = num / den, exact, with
    num and den at most bound.

    S[i] is a Hermite basis of Lambda_D in integral coordinates and G the
    form of O_K^m on them (`_okm_form`), block diagonal with one d x d block
    G_jj per column, so S G S^T is the sum F of the column Grams
    G_j = S_j G_jj S_j^T, one integer product per column for the batch.
    Column j of the embedded frame is a similarity exactly when
    G_j = c_j F, which is tested in integers with c_j = G_j[0, 0] / F[0, 0],
    and the least r_j^2 / c_j is picked by cross-multiplying.  Every line
    over Q passes (k d = 1), and so does every line over Q(i).  The dtype
    bounds the cross-products, not only the Grams.
    """
    d = ambient.field.degree
    B, r, width = S.shape
    G = _okm_form(ambient)[0]
    max_s, max_g = int(np.max(np.abs(S), initial=0)), int(np.max(np.abs(G)))
    gram_bound = max_s * max_s * max_g * d * width
    rad_bound = max(max(x.numerator, x.denominator) for x in radii) ** 2
    bound = rad_bound * gram_bound
    dtype = kernels.int_dtype(bound * bound)
    S = S.astype(dtype).reshape(B, r, width // d, d)
    grams = np.stack([S[:, :, j] @ G[c:c + d, c:c + d].astype(dtype) @ S[:, :, j].transpose(0, 2, 1)
                      for j, c in enumerate(range(0, width, d))], axis=1)     # (B, m, r, r)
    full = grams.sum(axis=1)
    f00, g00 = full[:, 0, 0], grams[:, :, 0, 0]
    similar = np.all(grams * f00[:, None, None, None] == g00[:, :, None, None] * full[:, None],
                     axis=(1, 2, 3))
    # num / den starts at +infinity; a column with c_j = 0 has den 0 and never wins
    num, den = np.ones(B, dtype=dtype), np.zeros(B, dtype=dtype)
    for j, rad in enumerate(radii):
        num_j, den_j = rad.numerator ** 2 * f00, rad.denominator ** 2 * g00[:, j]
        better = num_j * den < num * den_j
        num, den = np.where(better, num_j, num), np.where(better, den_j, den)
    return similar, num, den, bound


def _similarity_radius_sq(P: PrimitiveModule, radii):
    """rho^2 of `_similarity_radii_sq` for P alone, as a Fraction; None when
    some column block of its row space is not a similarity of it."""
    similar, num, den, _ = _similarity_radii_sq(np.array([P._hermite], dtype=object),
                                                P._ambient, radii)
    return Fraction(int(num[0]), int(den[0])) if similar[0] else None


def _mc_term(f: TestFunction, P: PrimitiveModule, n: int, mc_samples: int,
             seed) -> TermValue:
    """D(D)^(-n) * integral of f(x D), by Monte Carlo over the subspace measure.

    The estimator of every module term without a closed form, and a
    cross-check of the closed forms of a product of balls.  seed is what
    np.random.default_rng takes: a tuple of ints draws the stream of the
    SeedSequence of that tuple, so a series passes each module's entropy
    tuple and no SeedSequence is built for a closed-form term.
    """
    if mc_samples < 1:
        raise ValidationError(f"a term without a closed form is integrated by Monte Carlo "
                              f"and needs mc_samples (--mc-samples) >= 1, got {mc_samples}")
    lat = P.lattice
    kd = lat.rank
    hn = float(P.height_sq) ** (-n / 2.0)
    m, d = P.m, P.field.degree
    # orthonormal frame of the embedded row space
    basis_emb = np.array([lat.ambient.embed(row) for row in lat.basis])
    q, _ = np.linalg.qr(basis_emb.T)        # (m d, kd), orthonormal columns
    fro = f._support_radius(m)     # Frobenius support radius on m columns
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-fro, fro, size=(mc_samples, n, kd))
    vals = f._sample_values(pts, q, m, d)
    volume = (2.0 * fro) ** (n * kd)
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if mc_samples > 1 else 0.0
    value = hn * volume * mean
    stderr = hn * volume * std / math.sqrt(mc_samples)
    return TermValue(value=value, stderr=stderr, method="monte_carlo")


def term_value_detail(P: PrimitiveModule, n: int, f: TestFunction,
                      mc_samples: int = 0, seed=None) -> TermValue:
    """D(D)^(-n) * integral of f(x D) over M_{n x k}(K_R).

    Ball test functions have the closed form H^(-n) V(knd) R^(knd), and so
    does a product of balls on O_K^m and on a module whose column blocks are
    similarities of its row space (`ProductOfBalls.module_term`); the other
    product-of-balls terms and custom ones are integrated by Monte Carlo over
    the subspace measure with a reported standard error (`_mc_term`).  For a
    product of balls, floats propose each sample's in/out decision from one
    quadratic form per column, and the reference expression decides every
    sample within the derived rounding margin of a column radius
    (`_inside_product_of_balls`), so the estimate is the same bit for bit as
    evaluating the reference on every sample.
    """
    return f.module_term(P, n, mc_samples, seed)


def term_value(P: PrimitiveModule, n: int, f: TestFunction,
               mc_samples: int = 0, seed=None) -> float:
    return term_value_detail(P, n, f, mc_samples=mc_samples, seed=seed).value


def c1_estimate(field: NumberField, n: int, m: int, k: int, f: TestFunction,
                height_cutoff, mc_samples: int = 0, seed=None) -> C1Estimate:
    """Truncated series for the leading constant, plus a heuristic tail estimate."""
    if not (n > m >= k >= 1):
        raise ValueError("need n > m >= k >= 1")
    if mc_samples < 0:
        raise ValidationError(f"mc_samples (--mc-samples) must be >= 0, got {mc_samples}")
    modules = enumerate_primitive_modules(field, k, m, height_cutoff)
    # independent deterministic stream per module, in canonical module order;
    # exact integrals (mc_samples = 0) draw nothing
    values, stderrs = f.module_terms(modules, n, mc_samples, (0 if seed is None else int(seed),))
    total = 0.0
    var = 0.0
    for value, stderr in zip(values, stderrs):
        total += value
        var += stderr ** 2
    terms = list(zip(modules.heights.tolist(), modules.denominators.tolist(), values))
    cutoff = float(height_cutoff)
    tail = _tail_estimate(terms, cutoff, m, n)
    return C1Estimate(n=n, m=m, k=k, cutoff=cutoff, partial_sum=total,
                      term_count=len(terms), tail_estimate=tail,
                      mc_stderr=math.sqrt(var), terms=terms)


def _tail_estimate(terms, cutoff: float, m: int, n: int) -> float:
    """Fit C * X^(m-n) to the last decade of terms; reported, never added."""
    lo = cutoff / 10.0
    s_last = sum(v for h, _, v in terms if lo < h <= cutoff)
    if s_last <= 0:
        return 0.0
    expo = m - n
    denom = lo ** expo - cutoff ** expo
    if denom <= 0:
        return 0.0
    A = s_last / denom
    return A * cutoff ** expo


# -- zeta identities --------------------------------------------------------------------


def zeta(s: float, terms: int = 200) -> float:
    """Riemann zeta for s > 1 by direct summation with an Euler-Maclaurin tail.

    With M = 200 the remainder is below 1e-12 for all s >= 2.
    """
    if s <= 1:
        raise ValueError("need s > 1")
    M = terms
    total = sum(c ** -float(s) for c in range(1, M + 1))
    total += M ** (1.0 - s) / (s - 1.0)
    total -= 0.5 * M ** (-float(s))
    total += s * M ** (-s - 1.0) / 12.0
    total -= s * (s + 1) * (s + 2) * M ** (-s - 3.0) / 720.0
    return total


def _grid_norm_sq(m: int, cutoff: float):
    rng = np.arange(-int(cutoff), int(cutoff) + 1)
    grids = np.meshgrid(*([rng] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    nsq = (pts.astype(np.int64) ** 2).sum(axis=1)
    keep = (nsq > 0) & (nsq <= cutoff * cutoff)
    return pts[keep], nsq[keep]


def primitive_zeta_check(n: int, m: int, cutoff):
    """Truncations of zeta(n) * sum over primitive vectors vs sum over all vectors.

    Both sums share the cutoff; returns (lhs, rhs, relative_error).
    """
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if not 1 <= float(cutoff) < math.inf:
        raise ValueError(f"cutoff must be finite and >= 1, got {cutoff}")
    pts, nsq = _grid_norm_sq(m, float(cutoff))
    norms = np.sqrt(nsq.astype(float))
    rhs = float((norms ** (-float(n))).sum())
    g = np.gcd.reduce(np.abs(pts), axis=1)
    prim = g == 1
    lhs = zeta(n) * float((norms[prim] ** (-float(n))).sum())
    return lhs, rhs, abs(lhs - rhs) / rhs


def koecher_identity_check(field: NumberField, n: int, m: int, cutoff):
    """Rank-one series against the zeta-normalized lattice sum, shared truncation.

    series = sum over modules of D(D)^(-n) Integral(ball indicator), H <= cutoff;
    zeta side = V(n) * Z_trunc / zeta(n) with Z_trunc = (1/2) sum ||v||^(-n).
    Returns (series_side, zeta_side, relative_error).
    """
    if field.degree != 1:
        raise ValueError("the zeta comparison is stated over the rationals")
    modules = enumerate_primitive_modules(field, 1, m, cutoff)
    f = ball(1)
    series = sum(f.module_terms(modules, n, 0, ())[0])
    _, nsq = _grid_norm_sq(m, float(cutoff))
    z_trunc = 0.5 * float((np.sqrt(nsq.astype(float)) ** (-float(n))).sum())
    zeta_side = unit_ball_volume(n) * z_trunc / zeta(n)
    return series, zeta_side, abs(series - zeta_side) / zeta_side

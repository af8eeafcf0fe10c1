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
from .exactval import PowerProduct
from .modules import PrimitiveModule, enumerate_primitive_modules, span_modules
from .numfield import NumberField, _regular_rows, unflatten_kvector
from .zlattice import (
    ZLattice,
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

    def rank_k_sum(self, raw, field, lat, coords, hit, n: int, m: int, T) -> float:
        """raw plus the sum of f(A/T) over the enumerated matrices A flagged in hit."""
        d = field.degree
        for c in coords[hit].tolist():
            amb = lat.to_ambient(c)
            rows = [unflatten_kvector(field, list(amb[t * m * d:(t + 1) * m * d]))
                    for t in range(n)]
            raw += self._value_at(field, rows, T, m)
        return raw

    def module_term(self, P: PrimitiveModule, n: int, mc_samples: int, seed) -> TermValue:
        """D(D)^(-n) * integral of f(x D), by Monte Carlo over the subspace measure."""
        lat = P.lattice
        kd = lat.rank
        hn = float(P.height_sq) ** (-n / 2.0)
        if mc_samples <= 0:
            raise ValueError("mc_samples must be positive for non-ball test functions")
        m = P.echelon.m
        d = P.echelon.field.degree
        # orthonormal frame of the embedded row space
        basis_emb = np.array([lat.ambient.embed(row) for row in lat.basis])
        q, _ = np.linalg.qr(basis_emb.T)        # (m d, kd), orthonormal columns
        fro = self._support_radius(m)     # Frobenius support radius on m columns
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-fro, fro, size=(mc_samples, n, kd))
        vals = self._sample_values(pts, q, m, d)
        volume = (2.0 * fro) ** (n * kd)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if mc_samples > 1 else 0.0
        value = hn * volume * mean
        stderr = hn * volume * std / math.sqrt(mc_samples)
        return TermValue(value=value, stderr=stderr, method="monte_carlo")

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

    def rank_k_sum(self, raw, field, lat, coords, hit, n: int, m: int, T) -> float:
        # the points were enumerated in f's own ball, so f(A/T) = 1 on each
        return raw + float(np.count_nonzero(hit))

    def module_term(self, P: PrimitiveModule, n: int, mc_samples: int, seed) -> TermValue:
        hn = float(P.height_sq) ** (-n / 2.0)
        s = P.lattice.rank * n
        val = hn * unit_ball_volume(s) * float(self.radius) ** s
        return TermValue(value=val, stderr=0.0, method="closed_form")

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

    def _value_at(self, field, rows, T, m: int) -> float:
        radii = self.column_radii(m)
        for j in range(m):
            sq = sum(field.t2(row[j], row[j]) for row in rows)
            if sq == 0:
                continue
            if not PowerProduct.coerce(sq) * field.scale_sq <= \
                    PowerProduct.coerce(radii[j] ** 2 * T ** 2):
                return 0.0
        return 1.0

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

    def _value_at(self, field, rows, T, m: int) -> float:
        emb = np.array([np.concatenate([field.embed_element(x) for x in row]) for row in rows])
        return float(self.evaluator(emb / float(T)))

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


# -- rank filter ------------------------------------------------------------------


def ranks_over_K(field: NumberField, coords, row_basis) -> np.ndarray:
    """Ranks over K of a batch of matrices given by the lattice coordinates of their rows.

    coords is an (N, n, r) integer array and row_basis an r x (c d) rational
    matrix: row t of matrix i has power-basis coordinates coords[i, t] @
    row_basis, so each matrix is n x c over K.  The denominators of
    row_basis are cleared once, which scales every matrix and keeps its
    rank; the integer kernel then ranks the regular representation.
    """
    basis = intmat._integral(row_basis)[1]
    to_blocks = _regular_rows(field, basis).reshape(len(basis), -1)
    return kernels.ranks_regular(coords, to_blocks, field.degree)


# -- left side: direct and stratified counting ---------------------------------------


def lhs_count(field: NumberField, n: int, m: int, k: int, T, f: TestFunction,
              method: str = "auto", threads: int | None = None) -> RankCountReport:
    """Sum of f(A/T) over integral n x m matrices of rank exactly k.

    method "direct" enumerates the full matrix ball and filters by rank;
    "stratified" decomposes the sum over the modules Lambda_D carrying the
    rank-k matrices, which is how large T stays tractable.  The two methods
    agree exactly (tested), so "auto" picks by cost.  `threads` is accepted
    for compatibility and has no effect.
    """
    if not (n > m >= k >= 1):
        raise ValueError("need n > m >= k >= 1")
    T = Fraction(T)
    if T < 1:
        raise ValueError("need T >= 1")
    if method == "auto":
        method = "direct" if k == m else "stratified"
    if method == "direct":
        return _lhs_direct(field, n, m, k, T, f)
    if method == "stratified":
        return _lhs_stratified(field, n, m, k, T, f)
    raise ValueError(f"unknown method {method!r}")


def _lhs_direct(field, n, m, k, T, f):
    d = field.degree
    lat = okn_lattice(field, n * m)
    coords = short_vectors(lat, f.support_cover(T, m))
    seen = len(coords)
    # O_K^(nm) is n copies of O_K^m, one per matrix row; its first block is O_K^m
    row_basis = [row[:m * d] for row in lat.basis[:m * d]]
    ranks = ranks_over_K(field, coords.reshape(seen, n, m * d), row_basis)
    raw = f.rank_k_sum(0.0, field, lat, coords, ranks == k, n, m, T)
    return RankCountReport(T=T, raw_sum=raw, normalized=raw / float(T) ** (k * n * d),
                           matrices_seen=seen, method="direct")


def _lhs_stratified(field, n, m, k, T, f):
    d = field.degree
    RT = f.support_cover(T, m)
    raw = 0.0
    seen = 0
    # a counted matrix has k K-independent rows in its Lambda_D, each of norm
    # <= RT, so Lambda_D is spanned by k independent such vectors of O_K^m
    for P in span_modules(okn_lattice(field, m), k, RT):
        lam = P.lattice
        stacked = direct_sum(lam, n)
        coords = short_vectors(stacked, RT)
        seen += len(coords)
        # A = X D with X = A[:, pivots], as D is the identity on its pivot
        # columns, so rank_K A = rank_K X: rank the pivot columns only
        pivots = [p * d + b for p in P.echelon.pivot_cols for b in range(d)]
        piv_basis = [[row[j] for j in pivots] for row in lam.basis]
        ranks = ranks_over_K(field, coords.reshape(len(coords), n, lam.rank), piv_basis)
        raw = f.rank_k_sum(raw, field, stacked, coords, ranks == k, n, m, T)
    return RankCountReport(T=T, raw_sum=raw, normalized=raw / float(T) ** (k * n * d),
                           matrices_seen=seen, method="stratified")


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


def term_value_detail(P: PrimitiveModule, n: int, f: TestFunction,
                      mc_samples: int = 0, seed=None) -> TermValue:
    """D(D)^(-n) * integral of f(x D) over M_{n x k}(K_R).

    Ball test functions have the closed form H^(-n) V(knd) R^(knd); product
    and custom ones are integrated by Monte Carlo over the subspace measure
    with a reported standard error.  For a product of balls, floats propose
    each sample's in/out decision from one quadratic form per column, and the
    reference expression decides every sample within the derived rounding
    margin of a column radius (`_inside_product_of_balls`), so the estimate is
    the same bit for bit as evaluating the reference on every sample.
    """
    return f.module_term(P, n, mc_samples, seed)


def term_value(P: PrimitiveModule, n: int, f: TestFunction,
               mc_samples: int = 0, seed=None) -> float:
    return term_value_detail(P, n, f, mc_samples=mc_samples, seed=seed).value


def pivot_product_integral(P: PrimitiveModule, n: int, f: TestFunction) -> float:
    """Closed form of the product integral when D has only pivot and zero columns.

    Independent of the Monte Carlo path; used as its cross-check.
    """
    D = P.echelon
    field = D.field
    d = field.degree
    radii = f.column_radii(D.m)
    val = float(P.height_sq) ** (-n / 2.0)
    for j in range(D.m):
        col = [D.rows[i][j] for i in range(D.k)]
        if j in D.pivot_cols:
            val *= unit_ball_volume(n * d) * float(radii[j]) ** (n * d)
        elif all(x.is_zero() for x in col):
            continue
        else:
            raise ValueError("matrix has a non-pivot nonzero column")
    return val


def c1_estimate(field: NumberField, n: int, m: int, k: int, f: TestFunction,
                height_cutoff, mc_samples: int = 0, seed=None) -> C1Estimate:
    """Truncated series for the leading constant, plus a heuristic tail estimate."""
    if not (n > m >= k >= 1):
        raise ValueError("need n > m >= k >= 1")
    modules = enumerate_primitive_modules(field, k, m, height_cutoff)
    total = 0.0
    var = 0.0
    terms = []
    base_seed = 0 if seed is None else int(seed)
    for idx, P in enumerate(modules):
        # independent deterministic stream per module, in canonical module order
        tv = term_value_detail(P, n, f, mc_samples=mc_samples,
                               seed=np.random.SeedSequence((base_seed, idx)))
        total += tv.value
        var += tv.stderr ** 2
        terms.append((P.height, P.denominator, tv.value))
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
    series = sum(term_value(P, n, f) for P in modules)
    _, nsq = _grid_norm_sq(m, float(cutoff))
    z_trunc = 0.5 * float((np.sqrt(nsq.astype(float)) ** (-float(n))).sum())
    zeta_side = unit_ball_volume(n) * z_trunc / zeta(n)
    return series, zeta_side, abs(series - zeta_side) / zeta_side

"""Exact Z-lattice engine.

A ZLattice is a full-rank-by-rows discrete module in an exact rational
quadratic space, carried as basis + Gram data over Fraction with an analytic
scale factor (a PowerProduct holding discriminant powers).  Heights, LLL
reduction, Fincke-Pohst short-vector enumeration, saturation, successive
K-minima and covering-radius bounds all live here.

Squared norms decompose as scale_sq * (x G x^T) with G exact, so membership
and radius tests are exact even when the scale itself is irrational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from . import config, intmat, kernels
from .errors import EnumerationCapError, MembershipError
from .exactval import ONE, PowerProduct
from .numfield import NumberField, flatten_kvector, unflatten_kvector


def unit_ball_volume(s: int) -> float:
    """Volume of the unit ball in R^s."""
    return math.pi ** (s / 2.0) / math.gamma(s / 2.0 + 1.0)


class Ambient:
    """Exact quadratic space Q^N, optionally the coordinate space of K^m."""

    __slots__ = ("form", "scale_sq", "field", "ncomp", "dim")

    def __init__(self, form, scale_sq: PowerProduct, field: NumberField | None = None,
                 ncomp: int | None = None):
        self.form = tuple(tuple(Fraction(x) for x in row) for row in form)
        self.dim = len(self.form)
        self.scale_sq = scale_sq
        self.field = field
        self.ncomp = ncomp

    @classmethod
    def standard(cls, n: int) -> "Ambient":
        return cls(intmat.identity(n), ONE)

    @classmethod
    def for_field(cls, fld: NumberField, m: int) -> "Ambient":
        d = fld.degree
        blk = fld._t2_power
        if blk is None:
            fld.t2(fld.one(), fld.one())  # raises ExactNormUnavailableError
        n = m * d
        form = [[Fraction(0)] * n for _ in range(n)]
        for c in range(m):
            for i in range(d):
                for j in range(d):
                    form[c * d + i][c * d + j] = blk[i][j]
        return cls(form, fld.scale_sq, field=fld, ncomp=m)

    def qform(self, u, v=None) -> Fraction:
        if v is None:
            v = u
        acc = Fraction(0)
        for i, a in enumerate(u):
            if a:
                row = self.form[i]
                for j, b in enumerate(v):
                    if b:
                        acc += a * b * row[j]
        return acc

    def sqnorm_exact(self, vec) -> PowerProduct | None:
        q = self.qform([Fraction(x) for x in vec])
        if q == 0:
            return None
        return self.scale_sq * q

    def embed(self, vec) -> np.ndarray:
        """Float coordinates in an orthonormal frame for the twisted norm."""
        if self.field is None:
            return np.array([float(x) for x in vec], dtype=float)
        return self.field.minkowski_embed(unflatten_kvector(self.field, list(vec)))


def _integral(rows):
    """(den, den * rows) for a Fraction matrix, den the lcm of its denominators."""
    den = intmat.lcm_denominator(rows)
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


class ZLattice:
    """Discrete rank-r module with exact Gram data.

    basis rows are ambient coordinates; gram = basis * form * basis^T is
    verified on construction together with positive definiteness.
    """

    __slots__ = ("basis", "gram", "scale_sq", "ambient_dim", "rank", "ambient", "ok_module",
                 "_lll")

    def __init__(self, basis, ambient: Ambient, gram=None, ok_module: bool = False,
                 check: bool = True):
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self.ambient = ambient
        self.ambient_dim = ambient.dim
        self.rank = len(self.basis)
        self.scale_sq = ambient.scale_sq
        self.ok_module = ok_module
        self._lll = None  # LLL transform at the default delta, filled on first use
        computed = None
        if gram is None:
            computed = self._compute_gram()
            gram = computed
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        if check:
            if computed is None:
                computed = self._compute_gram()
                if tuple(tuple(r) for r in computed) != self.gram:
                    raise ValueError("gram does not match basis under the ambient form")
            for i in range(self.rank):
                for j in range(i):
                    if self.gram[i][j] != self.gram[j][i]:
                        raise ValueError("gram is not symmetric")
            minors, _ = intmat.leading_minors(_integral(self.gram)[1])
            if min(minors) <= 0:
                raise ValueError("gram is not positive definite")

    def _compute_gram(self):
        rows = [[Fraction(x) for x in row] for row in self.basis]
        out = []
        for i, u in enumerate(rows):
            out.append([self.ambient.qform(u, v) for v in rows])
        return out

    # -- heights ---------------------------------------------------------------

    def det_gram(self) -> Fraction:
        den, g = _integral(self.gram)
        d, _ = intmat.leading_minors(g)
        return Fraction(d[-1], den ** self.rank)  # the gram is positive definite

    def height_sq(self) -> PowerProduct:
        return self.scale_sq ** self.rank * self.det_gram()

    def height(self) -> float:
        return math.sqrt(float(self.height_sq()))

    # -- coordinates -----------------------------------------------------------

    def to_ambient(self, coords):
        return tuple(
            sum(Fraction(c) * self.basis[i][j] for i, c in enumerate(coords))
            for j in range(self.ambient_dim)
        )

    def coords_of(self, vec):
        """Rational coordinates of an ambient vector in this basis, or None."""
        aug = [[self.basis[i][j] for i in range(self.rank)] for j in range(self.ambient_dim)]
        target = [Fraction(x) for x in vec]
        M = [row + [t] for row, t in zip(aug, target)]
        R, pivots, rk = intmat.rref(M)
        if rk > self.rank or any(p == self.rank for p in pivots):
            return None
        sol = [Fraction(0)] * self.rank
        for r, p in enumerate(pivots):
            sol[p] = R[r][self.rank]
        # consistency of the overdetermined system
        for j in range(self.ambient_dim):
            if sum(sol[i] * self.basis[i][j] for i in range(self.rank)) != target[j]:
                return None
        return sol

    def contains(self, vec) -> bool:
        sol = self.coords_of(vec)
        return sol is not None and all(c.denominator == 1 for c in sol)

    def sqnorm_exact_of_coords(self, coords) -> PowerProduct | None:
        q = Fraction(0)
        for i, a in enumerate(coords):
            if a:
                row = self.gram[i]
                for j, b in enumerate(coords):
                    if b:
                        q += Fraction(a) * Fraction(b) * row[j]
        if q == 0:
            return None
        return self.scale_sq * q

    def kvector_of_coords(self, coords):
        if self.ambient.field is None:
            raise ValueError("lattice has no field structure")
        return unflatten_kvector(self.ambient.field, list(self.to_ambient(coords)))

    # -- serialization -----------------------------------------------------------

    def dumps(self) -> str:
        def frac(x):
            return f"{x.numerator}/{x.denominator}"

        scale = self.scale_sq
        num = scale.coeff
        pow_ = 0
        if self.ambient.field is not None and abs(self.ambient.field.discriminant) > 1:
            d = self.ambient.field.degree
            disc = abs(self.ambient.field.discriminant)
            for p in range(0, 2 * d + 1):
                cand = self.scale_sq * PowerProduct.of(disc, Fraction(p, d))
                if cand.is_rational():
                    num, pow_ = cand.as_fraction(), p
                    break
        return json.dumps({
            "basis": [[frac(x) for x in row] for row in self.basis],
            "gram": [[frac(x) for x in row] for row in self.gram],
            "scale_sq_num": frac(num),
            "scale_sq_den_pow": pow_,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
        })

    @classmethod
    def loads(cls, text: str, ambient: Ambient) -> "ZLattice":
        data = json.loads(text)
        basis = [[Fraction(x) for x in row] for row in data["basis"]]
        lat = cls(basis, ambient)
        if [[f"{x.numerator}/{x.denominator}" for x in row] for row in lat.gram] != data["gram"]:
            raise ValueError("stored gram disagrees with recomputed gram")
        return lat

    def __repr__(self):
        return f"ZLattice(rank={self.rank}, ambient_dim={self.ambient_dim})"


# -- constructions ---------------------------------------------------------------


def integer_lattice(n: int) -> ZLattice:
    return ZLattice(intmat.identity(n), Ambient.standard(n))


def okn_lattice(fld: NumberField, m: int) -> ZLattice:
    """O_K^m with its unit-covolume twisted structure."""
    amb = Ambient.for_field(fld, m)
    d = fld.degree
    basis = []
    for c in range(m):
        for row in fld.integral_basis:
            vec = [Fraction(0)] * (m * d)
            vec[c * d:(c + 1) * d] = list(row)
            basis.append(vec)
    return ZLattice(basis, amb, ok_module=True)


def from_ok_rows(fld: NumberField, kvec_rows, ambient: Ambient | None = None) -> ZLattice:
    """O_K-span of K-vectors, as the Z-span of the u_j * v_i generators."""
    rows = fld.ok_z_basis(kvec_rows)
    flat = [flatten_kvector(fld, r) for r in rows]
    amb = ambient or Ambient.for_field(fld, len(kvec_rows[0]))
    return ZLattice(flat, amb, ok_module=True)


def direct_sum(lat: ZLattice, n: int) -> ZLattice:
    """Orthogonal sum of n copies (matrices with rows from the lattice)."""
    r, N = lat.rank, lat.ambient_dim
    form = [[Fraction(0)] * (N * n) for _ in range(N * n)]
    for t in range(n):
        for i in range(N):
            for j in range(N):
                form[t * N + i][t * N + j] = lat.ambient.form[i][j]
    amb = Ambient(form, lat.scale_sq, field=lat.ambient.field,
                  ncomp=None if lat.ambient.ncomp is None else lat.ambient.ncomp * n)
    basis = []
    gram = [[Fraction(0)] * (r * n) for _ in range(r * n)]
    for t in range(n):
        for i in range(r):
            vec = [Fraction(0)] * (N * n)
            vec[t * N:(t + 1) * N] = list(lat.basis[i])
            basis.append(vec)
            for j in range(r):
                gram[t * r + i][t * r + j] = lat.gram[i][j]
    return ZLattice(basis, amb, gram=gram, check=False)


# -- basic functionals -------------------------------------------------------------


def height(lat: ZLattice) -> float:
    return lat.height()


def hadamard_ratio(lat_or_basis, ambient: Ambient | None = None) -> float:
    """prod ||v_i|| / H; at least 1, equal to 1 for orthogonal bases."""
    if isinstance(lat_or_basis, ZLattice):
        lat = lat_or_basis
    else:
        if ambient is None:
            ambient = Ambient.standard(len(lat_or_basis[0]))
        lat = ZLattice(lat_or_basis, ambient)
    detg = lat.det_gram()
    if detg == 0:
        raise ValueError("basis rows are dependent")
    ratio_sq = Fraction(1)
    for i in range(lat.rank):
        ratio_sq *= lat.gram[i][i]
    return math.sqrt(float(ratio_sq / detg))


# -- LLL ---------------------------------------------------------------------------


def _lll_transform(gram, delta: Fraction):
    """Unimodular U with U G U^T Lovasz-reduced; integral LLL on the scaled Gram.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7, with
    exact integers in place of the rational Gram-Schmidt data: d[i] is the i-th
    leading minor of the lcm-scaled Gram (a positive scale leaves U unchanged)
    and lam[i][j] = d[j+1] * mu_ij.  Rows are size-reduced against j = k-1 .. 0
    with r = floor(mu + 1/2) before the Lovasz test, so every decision, and U,
    is the one the rational algorithm makes.
    """
    n = len(gram)
    d, lam = intmat.leading_minors(_integral(gram)[1])
    p, q = delta.numerator, delta.denominator
    U = intmat.identity(n)
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lk[j] + dj) // (2 * dj)
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                lk[j] -= r * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        ll = lk[k - 1]
        if q * (d[k + 1] * d[k - 1] + ll * ll) >= p * d[k] * d[k]:
            k += 1
            continue
        # swap rows k-1 and k (Cohen's SWAPI); lam[k][k-1] is unchanged
        U[k], U[k - 1] = U[k - 1], U[k]
        lk1 = lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        dk, dk1 = d[k], d[k + 1]
        b = (d[k - 1] * dk1 + ll * ll) // dk
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - ll * t) // dk
            li[k - 1] = (b * t + ll * li[k]) // dk1
        d[k] = b
        k = max(k - 1, 1)
    return U


_LLL_DELTA = 0.99


def _transform(lat: ZLattice, delta: float = _LLL_DELTA):
    """LLL transform of lat as a tuple of rows; at the default delta, once per lattice."""
    if not 0.25 < delta < 1:
        raise ValueError("delta must be in (0.25, 1)")
    if delta == _LLL_DELTA and lat._lll is not None:
        return lat._lll
    U = _lll_transform(lat.gram, Fraction(delta).limit_denominator(10 ** 6))
    U = tuple(tuple(row) for row in U)
    if delta == _LLL_DELTA:
        lat._lll = U
    return U


def lll_reduce(lat: ZLattice, delta: float = _LLL_DELTA) -> ZLattice:
    """Same lattice on a Lovasz-reduced basis (exact arithmetic on the Gram)."""
    U = _transform(lat, delta)
    if lat.rank <= 1:
        return lat
    basis = intmat.mat_mul(U, [list(r) for r in lat.basis])
    return ZLattice(basis, lat.ambient, ok_module=lat.ok_module)


def lll_transform_of(lat: ZLattice, delta: float = _LLL_DELTA):
    """Unimodular U, as a tuple of rows, with U G U^T Lovasz-reduced."""
    return _transform(lat, delta)


def _reduced_sqnorms(lat: ZLattice, U) -> list:
    """Diagonal of U G U^T: the exact Gram norms of the reduced basis rows."""
    g = lat.gram
    idx = range(lat.rank)
    return [sum(u[a] * g[a][b] * u[b] for a in idx if u[a] for b in idx if u[b])
            for u in U]


def covering_radius_bound(lat: ZLattice) -> float:
    """Certified upper bound: half the sum of the norms of an LLL-reduced basis."""
    return _half_norm_sum(lat, _reduced_sqnorms(lat, _transform(lat)))


def _half_norm_sum(lat: ZLattice, reduced_sqnorms) -> float:
    """Half the sum of the basis norms, from the Gram norms of an LLL-reduced basis."""
    scale = float(lat.scale_sq)
    return 0.5 * sum(math.sqrt(scale * float(q)) for q in reduced_sqnorms)


# -- short vectors ------------------------------------------------------------------


def _coerce_radius_sq(radius) -> PowerProduct:
    if isinstance(radius, PowerProduct):
        return radius ** 2
    if isinstance(radius, (int, Fraction)):
        return PowerProduct.coerce(Fraction(radius) ** 2)
    return PowerProduct.coerce(Fraction(float(radius)) ** 2)


def ball_count_estimate(lat: ZLattice, radius: float) -> float:
    """Volume-heuristic bound on card{v : ||v|| <= radius}: 2 V(r) (T+rho)^r / H."""
    return _ball_count(lat, radius, covering_radius_bound(lat))


def _ball_count(lat: ZLattice, radius: float, rho: float) -> float:
    r = lat.rank
    return 2.0 * unit_ball_volume(r) * (radius + rho) ** r / lat.height()


def short_vectors(lat: ZLattice, radius, cap: int | None = None,
                  threads: int | None = None) -> np.ndarray:
    """Exactly the coordinate vectors x with ||x * basis|| <= radius.

    Returns an (N, rank) int64 array whose rows are sorted lexicographically
    and include 0; if a coordinate does not fit in int64 the array holds
    Python ints (dtype object), in the same order.  Output is complete
    (float enumeration is padded, then filtered with exact integer
    arithmetic) and deterministic.  The radius may be a float, Fraction, or
    PowerProduct; floats are treated as the exact binary rational they
    denote.  `threads` is accepted for compatibility and has no effect.
    """
    cap = cap or config.DEFAULT_ENUM_CAP
    radius_sq = _coerce_radius_sq(radius)
    if float(radius_sq) <= 0:
        raise ValueError("radius must be positive")
    U = lll_transform_of(lat)
    gram_red = intmat.mat_mul(intmat.mat_mul(U, [list(r) for r in lat.gram]),
                              intmat.transpose(U))
    # gram_red is the Gram of the LLL-reduced basis, the same one
    # covering_radius_bound reduces to, so this is ball_count_estimate exactly
    est = _ball_count(lat, math.sqrt(float(radius_sq)),
                      _half_norm_sum(lat, [gram_red[i][i] for i in range(lat.rank)]))
    if est > cap:
        raise EnumerationCapError(est, cap, math.sqrt(float(radius_sq)))

    bound_pow = radius_sq / lat.scale_sq  # threshold for x G x^T
    den, g_int = _integral(gram_red)
    bound_int = bound_pow * den

    g_f = np.array([[float(v) for v in row] for row in g_int], dtype=float)
    chol = np.linalg.cholesky(g_f)
    dvec = np.diag(chol) ** 2
    lmat = chol / np.diag(chol)[None, :]

    bound_f = float(bound_int) * (1.0 + 1e-9) + 1e-9
    r = lat.rank
    top = int(math.floor(math.sqrt(bound_f / dvec[r - 1]))) + 1
    ys = kernels.fp_enumerate(lmat, dvec, bound_f, -top, top)
    if ys.shape[0] > cap:
        raise EnumerationCapError(float(ys.shape[0]), cap, math.sqrt(float(radius_sq)))

    # exact filter on Q_int = y G_int y^T against bound_int
    accepted = _filter_exact(ys, g_int, bound_int)
    del ys
    max_u = max((abs(x) for row in U for x in row), default=0)
    max_y = int(np.max(np.abs(accepted))) if accepted.size else 0
    if max_u * max_y * r < 2 ** 62:
        out = accepted @ np.array(U, dtype=np.int64)
        return out[np.lexsort(out.T[::-1])]
    out = sorted(tuple(intmat.vec_mat([int(v) for v in y], U)) for y in accepted)
    return np.array(out, dtype=object).reshape(len(out), r)


def _filter_exact(ys: np.ndarray, g_int, bound_int: PowerProduct) -> np.ndarray:
    if ys.shape[0] == 0:
        return ys
    g_arr = np.array(g_int, dtype=np.int64)
    max_y = int(np.max(np.abs(ys))) if ys.size else 0
    max_g = int(np.max(np.abs(g_arr)))
    r = g_arr.shape[0]
    safe = max_g * (max_y + 1) ** 2 * r * r < 2 ** 62
    if safe:
        q = np.einsum("ni,ij,nj->n", ys, g_arr, ys)
    else:
        q = np.array([_qform_bigint(y, g_int) for y in ys], dtype=object)
    if bound_int.is_rational():
        b = bound_int.as_fraction()
        qmax = int(np.max(np.abs(q))) if safe and q.size else 0
        if safe and b.numerator < 2 ** 62 and qmax * b.denominator < 2 ** 62:
            mask = q * b.denominator <= b.numerator
        else:
            mask = np.array([int(v) * b.denominator <= b.numerator for v in q], dtype=bool)
        return ys[mask]
    # irrational bound: floats decide away from the boundary, exact compare at it
    bf = float(bound_int)
    qf = q.astype(float) if safe else np.array([float(v) for v in q])
    mask = qf <= bf * (1 - 1e-9)
    boundary = ~mask & (qf <= bf * (1 + 1e-9))
    for idx in np.nonzero(boundary)[0]:
        qv = int(q[idx])
        if qv == 0 or PowerProduct.coerce(qv) <= bound_int:
            mask[idx] = True
    return ys[mask]


def _qform_bigint(y, g_int) -> int:
    acc = 0
    for i, a in enumerate(y):
        a = int(a)
        if a:
            row = g_int[i]
            for j, b in enumerate(y):
                b = int(b)
                if b:
                    acc += a * b * row[j]
    return acc


def shortest_nonzero_sqnorm(lat: ZLattice) -> PowerProduct:
    """Exact squared norm of a shortest nonzero vector."""
    # the cached reduction short_vectors runs on, without building a reduced lattice
    guess = min(float(lat.scale_sq) * float(q)
                for q in _reduced_sqnorms(lat, _transform(lat)))
    radius = math.sqrt(guess) * (1 + 1e-9)
    best = None
    for v in short_vectors(lat, radius).tolist():
        q = lat.sqnorm_exact_of_coords(v)
        if q is not None and (best is None or q < best):
            best = q
    return best


# -- saturation ----------------------------------------------------------------------


def sublattice_coords(sub: ZLattice, ambient_lat: ZLattice):
    """Integer coordinates of sub's basis in ambient_lat's basis; raises if not contained."""
    rows = []
    for row in sub.basis:
        sol = ambient_lat.coords_of(row)
        if sol is None or any(c.denominator != 1 for c in sol):
            raise MembershipError("sublattice is not contained in the ambient lattice")
        rows.append([int(c) for c in sol])
    return rows


def saturate(sub: ZLattice, ambient_lat: ZLattice) -> ZLattice:
    """(sub tensor Q) intersect ambient_lat, a primitive sublattice.

    The returned basis is canonical (Hermite form in ambient coordinates),
    so saturating twice reproduces the same object.
    """
    X = sublattice_coords(sub, ambient_lat)
    sat = intmat.saturation_basis(X)
    H, _ = intmat.hermite_normal_form(sat)
    canon = [row for row in H if any(row)]
    basis = intmat.mat_mul(canon, [list(r) for r in ambient_lat.basis])
    return ZLattice(basis, ambient_lat.ambient, ok_module=sub.ok_module)


def saturation_index(sub: ZLattice, ambient_lat: ZLattice) -> int:
    """Index of sub inside its saturation."""
    X = sublattice_coords(sub, ambient_lat)
    divisors, _, _ = intmat.smith_normal_form(X)
    idx = 1
    for dv in divisors:
        if dv:
            idx *= dv
    return idx


def is_primitive_in(sub: ZLattice, ambient_lat: ZLattice) -> bool:
    return saturation_index(sub, ambient_lat) == 1


# -- successive K-minima ---------------------------------------------------------------


@dataclass
class MinimaReport:
    vectors: list            # K-rows (tuples of FieldElement), length k
    norms: list[float]       # increasing
    sqnorms: list            # exact PowerProducts
    projections_ok: list = dataclass_field(default_factory=list)  # per pair (i, j), i < j


def _embed_key(lat: ZLattice, coords):
    emb = lat.ambient.embed(lat.to_ambient(coords))
    quant = tuple(round(float(v), 12) for v in emb)
    # sign canonical: first nonzero embedded coordinate positive
    for v in quant:
        if v != 0:
            if v < 0:
                return tuple(-x for x in quant), -1
            break
    return quant, 1


def successive_k_minima(lat: ZLattice, k: int | None = None) -> MinimaReport:
    """Shortest vectors chosen outside the K-span of the previous ones.

    The module must be stable under the integral basis action (checked).
    Ties at equal norm are broken deterministically on sign-normalized
    embedded coordinates.
    """
    fld = lat.ambient.field
    if fld is None or not lat.ok_module:
        raise ValueError("successive_k_minima needs an O_K-module lattice")
    d = fld.degree
    if lat.rank % d:
        raise ValueError("Z-rank is not a multiple of the field degree")
    krank = lat.rank // d
    if k is None:
        k = krank
    if k > krank:
        raise ValueError(f"module has O_K-rank {krank} < {k}")
    _check_ok_stable(lat)

    chosen: list[tuple] = []          # coordinate vectors
    span_rows: list[list[Fraction]] = []  # flat Q-rows spanning the K-span so far
    radius = math.sqrt(float(shortest_nonzero_sqnorm(lat))) * (1 + 1e-9)
    while len(chosen) < k:
        candidates = []
        for v in short_vectors(lat, radius).tolist():
            q = lat.sqnorm_exact_of_coords(v)
            if q is None:
                continue
            candidates.append((q, v))
        candidates.sort(key=lambda t: (float(t[0]), _embed_key(lat, t[1])[0]))
        found = False
        for q, v in candidates:
            if chosen and _in_span(span_rows, lat, v):
                continue
            # equal-norm tie break: among candidates of this exact norm outside
            # the span, prefer the lexicographically largest embedded key
            same = [w for qq, w in candidates
                    if qq == q and not (chosen and _in_span(span_rows, lat, w))]
            best = max(same, key=lambda w: _embed_key(lat, w)[0])
            key, sign = _embed_key(lat, best)
            coords = tuple(sign * int(c) for c in best)
            chosen.append(coords)
            kvec = lat.kvector_of_coords(coords)
            for row in fld.ok_z_basis([kvec]):
                span_rows.append([Fraction(x) for x in flatten_kvector(fld, row)])
            found = True
            break
        if not found:
            radius *= 2.0
    vectors = [lat.kvector_of_coords(c) for c in chosen]
    sqnorms = [lat.sqnorm_exact_of_coords(c) for c in chosen]
    norms = [math.sqrt(float(q)) for q in sqnorms]
    report = MinimaReport(vectors=vectors, norms=norms, sqnorms=sqnorms)
    report.projections_ok = _projection_checks(lat, chosen)
    return report


def _check_ok_stable(lat: ZLattice):
    fld = lat.ambient.field
    for row in lat.basis:
        kvec = unflatten_kvector(fld, list(row))
        for u in fld.basis_elements():
            prod = tuple(u * x for x in kvec)
            if not lat.contains(flatten_kvector(fld, prod)):
                raise ValueError("lattice is not stable under the integral basis action")


def _in_span(span_rows, lat: ZLattice, coords) -> bool:
    vec = [Fraction(x) for x in lat.to_ambient(coords)]
    rk = intmat.rank(span_rows)
    return intmat.rank(span_rows + [vec]) == rk


def _projection_checks(lat: ZLattice, chosen) -> list:
    """||pi_i(l_j)|| <= covering-radius bound of O_K * l_i, for i < j."""
    fld = lat.ambient.field
    out = []
    embs = [lat.ambient.embed(lat.to_ambient(c)) for c in chosen]
    for i in range(len(chosen)):
        kvec = lat.kvector_of_coords(chosen[i])
        line = from_ok_rows(fld, [kvec], ambient=lat.ambient)
        rho = covering_radius_bound(line)
        basis_emb = np.array([lat.ambient.embed(row) for row in line.basis])
        qmat, _ = np.linalg.qr(basis_emb.T)
        for j in range(i + 1, len(chosen)):
            proj = qmat.T @ embs[j]
            out.append(((i, j), bool(np.linalg.norm(proj) <= rho + 1e-9)))
    return out

"""Exact Z-lattice engine.

A ZLattice is a full-rank-by-rows discrete module in an exact rational
quadratic space, carried as a basis, its Gram (computed once, in integers, by
the constructor) and an analytic scale factor (a PowerProduct holding
discriminant powers).  Heights, LLL reduction, Fincke-Pohst short-vector
enumeration, saturation (one Hermite form, intmat.saturation_basis, of the
fraction-free RREF that kernels.gauss_jordan gives of the coordinates),
successive K-minima and covering-radius bounds all live here.

Squared norms decompose as scale_sq * (x G x^T) with G exact, so membership
and radius tests are exact even when the scale itself is irrational.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from . import intmat, kernels
from .errors import EnumerationCapError, MembershipError
from .exactval import ONE, PowerProduct
from .numfield import NumberField, flatten_kvector, unflatten_kvector


# short_vectors aborts once its enumeration has created more rows than this, at
# every level of the search, not only full vectors; the int64 rows it holds
# then take at most cap * rank * 8 bytes, 0.96 GB at rank 12
DEFAULT_ENUM_CAP = 10_000_000


def unit_ball_volume(s: int) -> float:
    """Volume of the unit ball in R^s."""
    return math.pi ** (s / 2.0) / math.gamma(s / 2.0 + 1.0)


class Ambient:
    """Exact quadratic space Q^N, optionally the coordinate space of K^m.

    The form is scaled to integers once, by form_den, the lcm of its
    denominators; every lattice in this space computes its Gram from that.
    """

    __slots__ = ("form", "form_den", "_form_rows", "scale_sq", "field", "dim", "_stacks")

    def __init__(self, form, scale_sq: PowerProduct, field: NumberField | None = None):
        self.form = tuple(tuple(Fraction(x) for x in row) for row in form)
        self.dim = len(self.form)
        self.form_den, form_int = intmat._integral(self.form)
        # the nonzero entries (j, f) of each row of form_int
        self._form_rows = tuple(tuple((j, f) for j, f in enumerate(row) if f)
                                for row in form_int)
        self.scale_sq = scale_sq
        self.field = field
        self._stacks = {}   # n -> the orthogonal sum of n copies

    @classmethod
    def standard(cls, n: int) -> "Ambient":
        return cls(intmat.identity(n), ONE)

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def for_field(fld: NumberField, m: int) -> "Ambient":
        """K^m in power coordinates with the twisted T2 form, built once per (fld, m)."""
        if fld._t2_power is None:
            fld.t2(fld.one(), fld.one())  # raises ExactNormUnavailableError
        return Ambient(fld._t2_power, fld.scale_sq, field=fld).stacked(m)

    def stacked(self, n: int) -> "Ambient":
        """The orthogonal sum of n copies of this space, built once per n."""
        amb = self._stacks.get(n)
        if amb is None:
            N = self.dim
            form = [[0] * (N * n) for _ in range(N * n)]
            for t in range(n):
                for i, row in enumerate(self.form):
                    form[t * N + i][t * N:(t + 1) * N] = row
            amb = self._stacks[n] = Ambient(form, self.scale_sq, field=self.field)
        return amb

    def embed(self, vec) -> np.ndarray:
        """Float coordinates in an orthonormal frame for the twisted norm."""
        if self.field is None:
            return np.array([float(x) for x in vec], dtype=float)
        return self.field.minkowski_embed(unflatten_kvector(self.field, list(vec)))


@functools.lru_cache(maxsize=64)
def _scale_power(scale_sq: PowerProduct, r: int) -> PowerProduct:
    """scale_sq ** r, the factor of H^2 of every rank-r lattice in one space."""
    return scale_sq ** r


class ZLattice:
    """Discrete rank-r module with exact Gram data.

    basis rows are ambient coordinates.  The constructor computes the Gram
    basis * form * basis^T once, in integers, as gram_int / gram_den with
    gram_den the lcm of the denominators of the Gram, and rejects it unless it
    is symmetric and positive definite; gram is the same matrix over Fraction.
    """

    __slots__ = ("basis", "gram", "gram_int", "gram_den", "scale_sq", "ambient_dim", "rank",
                 "ambient", "ok_module", "_det", "_lll")

    def __init__(self, basis, ambient: Ambient, ok_module: bool = False):
        # a Fraction is kept as it is: Fraction(x) of one costs an ABC check
        self.basis = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                           for row in basis)
        self.ambient = ambient
        self.ambient_dim = ambient.dim
        self.rank = len(self.basis)
        self.scale_sq = ambient.scale_sq
        self.ok_module = ok_module
        self._lll = None  # LLL transform, filled on first use
        bden, B = intmat._integral(self.basis)
        rows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
        form = ambient._form_rows
        g = []
        for nz in rows:
            bf = [0] * ambient.dim   # this row of B * form
            for i, b in nz:
                for j, f in form[i]:
                    bf[j] += b * f
            g.append([sum(bf[j] * b for j, b in other) for other in rows])
        for i in range(self.rank):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram is not symmetric")
        # the Gram is g / total; dividing both by their gcd leaves the lcm scaling
        total = bden * bden * ambient.form_den
        c = math.gcd(total, *(x for row in g for x in row))
        self.gram_den = total // c
        self.gram_int = tuple(tuple(x // c for x in row) for row in g)
        minors, _ = intmat.leading_minors(self.gram_int)
        if min(minors) <= 0:
            raise ValueError("gram is not positive definite")
        self._det = minors[-1]
        self.gram = tuple(tuple(Fraction(x, self.gram_den) for x in row)
                          for row in self.gram_int)

    # -- heights ---------------------------------------------------------------

    def det_gram(self) -> Fraction:
        return Fraction(self._det, self.gram_den ** self.rank)

    def height_sq(self) -> PowerProduct:
        return _scale_power(self.scale_sq, self.rank) * self.det_gram()

    def height(self) -> float:
        return math.sqrt(float(self.height_sq()))

    # -- coordinates -----------------------------------------------------------

    def to_ambient(self, coords):
        return tuple(
            sum(Fraction(c) * self.basis[i][j] for i, c in enumerate(coords))
            for j in range(self.ambient_dim)
        )

    def _coords(self, vecs):
        """Rational coordinates of ambient vectors in this basis, or None if one is
        outside the span: one RREF of [basis^T | vecs^T], whose first rank pivots
        are the independent basis columns; a vector outside the span adds one."""
        R, _, rk = intmat.rref(list(zip(*self.basis, *vecs)))
        if rk > self.rank:
            return None
        return [[R[i][self.rank + t] for i in range(self.rank)] for t in range(len(vecs))]

    def coords_of(self, vec):
        """Rational coordinates of an ambient vector in this basis, or None."""
        sol = self._coords([vec])
        return None if sol is None else sol[0]

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
    N = lat.ambient_dim
    basis = []
    for t in range(n):
        for row in lat.basis:
            vec = [0] * (N * n)
            vec[t * N:(t + 1) * N] = row
            basis.append(vec)
    return ZLattice(basis, lat.ambient.stacked(n))


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
    ratio_sq = Fraction(1)
    for i in range(lat.rank):
        ratio_sq *= lat.gram[i][i]
    return math.sqrt(float(ratio_sq / lat.det_gram()))


# -- LLL ---------------------------------------------------------------------------


def _lll_transform(gram_int, delta: Fraction):
    """Unimodular U with U G U^T Lovasz-reduced; integral LLL on a scaled Gram.

    gram_int is a positive integer multiple of G, such as ZLattice.gram_int.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7, with
    exact integers in place of the rational Gram-Schmidt data: d[i] is the i-th
    leading minor of gram_int (a positive scale leaves U unchanged)
    and lam[i][j] = d[j+1] * mu_ij.  Rows are size-reduced against j = k-1 .. 0
    with r = floor(mu + 1/2) before the Lovasz test, so every decision, and U,
    is the one the rational algorithm makes.
    """
    n = len(gram_int)
    d, lam = intmat.leading_minors(gram_int)
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


_LLL_DELTA = Fraction(99, 100)


def _transform(lat: ZLattice):
    """LLL transform of lat as a tuple of rows, computed once per lattice."""
    if lat._lll is None:
        lat._lll = tuple(tuple(row) for row in _lll_transform(lat.gram_int, _LLL_DELTA))
    return lat._lll


def lll_reduce(lat: ZLattice) -> ZLattice:
    """Same lattice on a Lovasz-reduced basis (exact arithmetic on the Gram)."""
    U = _transform(lat)
    if lat.rank <= 1:
        return lat
    basis = intmat.mat_mul(U, [list(r) for r in lat.basis])
    return ZLattice(basis, lat.ambient, ok_module=lat.ok_module)


def lll_transform_of(lat: ZLattice):
    """Unimodular U, as a tuple of rows, with U G U^T Lovasz-reduced."""
    return _transform(lat)


def _reduced_sqnorms(lat: ZLattice, U) -> list:
    """Diagonal of U G U^T: the exact Gram norms of the reduced basis rows."""
    g = lat.gram
    idx = range(lat.rank)
    return [sum(u[a] * g[a][b] * u[b] for a in idx if u[a] for b in idx if u[b])
            for u in U]


def covering_radius_bound(lat: ZLattice) -> float:
    """Certified upper bound: half the sum of the norms of an LLL-reduced basis."""
    scale = float(lat.scale_sq)
    return 0.5 * sum(math.sqrt(scale * float(q))
                     for q in _reduced_sqnorms(lat, _transform(lat)))


# -- short vectors ------------------------------------------------------------------


def _coerce_radius_sq(radius) -> PowerProduct:
    if isinstance(radius, PowerProduct):
        return radius ** 2
    if isinstance(radius, (int, Fraction)):
        return PowerProduct.coerce(Fraction(radius) ** 2)
    return PowerProduct.coerce(Fraction(float(radius)) ** 2)


def short_vectors(lat: ZLattice, radius) -> np.ndarray:
    """Exactly the coordinate vectors x with ||x * basis|| <= radius.

    Returns an (N, rank) integer array whose rows are sorted lexicographically
    and include 0, in the dtype kernels.int_dtype picks for the coordinate
    transform: int64, or object (Python ints) when a coordinate could pass
    int64.  Output is complete (float enumeration is padded, then filtered
    with exact integer arithmetic) and deterministic.  The radius may be a
    float, Fraction, or PowerProduct; floats are treated as the exact binary
    rational they denote.  An enumeration that creates more than
    DEFAULT_ENUM_CAP rows, counted at every level of the search, stops with
    EnumerationCapError, which reports the count it reached and the radius.
    """
    radius_sq = _coerce_radius_sq(radius)
    if float(radius_sq) <= 0:
        raise ValueError("radius must be positive")
    U = lll_transform_of(lat)
    # the reduced Gram U G U^T is g_int / den with g_int = U (den G) U^T, and
    # this is its lcm scaling too: den is coprime to the gcd of the entries of
    # den G, and the unimodular U leaves that gcd unchanged
    den = lat.gram_den
    g_int = intmat.mat_mul(intmat.mat_mul(U, lat.gram_int), intmat.transpose(U))
    bound_pow = radius_sq / lat.scale_sq  # threshold for x G x^T
    bound_int = bound_pow * den

    g_f = np.array([[float(v) for v in row] for row in g_int], dtype=float)
    chol = np.linalg.cholesky(g_f)
    dvec = np.diag(chol) ** 2
    lmat = chol / np.diag(chol)[None, :]

    bound_f = float(bound_int) * (1.0 + 1e-9) + 1e-9
    try:
        ys = kernels.fp_enumerate(lmat, dvec, bound_f, DEFAULT_ENUM_CAP)
    except EnumerationCapError as exc:
        raise EnumerationCapError(exc.estimate, exc.cap,
                                  math.sqrt(float(radius_sq))) from None

    # exact filter on Q_int = y G_int y^T against bound_int
    accepted = _filter_exact(ys, g_int, bound_int)
    del ys
    max_u = max((abs(x) for row in U for x in row), default=0)
    max_y = int(np.max(np.abs(accepted))) if accepted.size else 0
    # 0 is always accepted, so max(max_y, 1) also keeps U itself in range
    dtype = kernels.int_dtype(max_u * max(max_y, 1) * lat.rank)
    out = accepted.astype(dtype, copy=False) @ np.array(U, dtype=dtype)
    return out[np.lexsort(out.T[::-1])]


def _filter_exact(ys: np.ndarray, g_int, bound_int: PowerProduct) -> np.ndarray:
    if ys.shape[0] == 0:
        return ys
    r = len(g_int)
    max_y = int(np.max(np.abs(ys)))
    max_g = max(abs(v) for row in g_int for v in row)
    q_bound = max_g * (max_y + 1) ** 2 * r * r
    dtype = kernels.int_dtype(q_bound)
    y = ys.astype(dtype, copy=False)
    q = ((y @ np.array(g_int, dtype=dtype)) * y).sum(axis=1)
    if bound_int.is_rational():
        # for an integer q and den > 0, q * den <= num is q <= num // den,
        # and the cap at q_bound keeps the right side in q's dtype
        b = bound_int.as_fraction()
        return ys[q <= min(b.numerator // b.denominator, q_bound)]
    # irrational bound: floats decide away from the boundary, exact compare at it
    bf = float(bound_int)
    qf = q.astype(float)
    mask = qf <= bf * (1 - 1e-9)
    boundary = ~mask & (qf <= bf * (1 + 1e-9))
    for idx in np.nonzero(boundary)[0]:
        qv = int(q[idx])
        if qv == 0 or PowerProduct.coerce(qv) <= bound_int:
            mask[idx] = True
    return ys[mask]


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
    sol = ambient_lat._coords(sub.basis)
    if sol is None or any(c.denominator != 1 for row in sol for c in row):
        raise MembershipError("sublattice is not contained in the ambient lattice")
    return [[c.numerator for c in row] for row in sol]


def _saturation(sub: ZLattice, ambient_lat: ZLattice):
    """(S, index): the Hermite basis S of sub's saturation, in ambient_lat's
    coordinates, and [saturation : sub].

    kernels.gauss_jordan gives den times the rational RREF R of sub's integer
    coordinates X, the q A of intmat.saturation_basis with q = |den|.  X = X_P R,
    X_P its columns at R's pivots, and |den| = |det X_P| is the index of sub in
    Z^r R; saturation_basis gives the index of the saturation there.
    """
    X = sublattice_coords(sub, ambient_lat)
    rows, _, _, den = kernels.gauss_jordan(np.array(X, dtype=object)[None])
    q, sign = abs(int(den[0])), (1 if den[0] > 0 else -1)
    sat, sat_den = intmat.saturation_basis(q, [[sign * x for x in row] for row in rows[0].tolist()])
    return sat, q // sat_den


def saturate(sub: ZLattice, ambient_lat: ZLattice) -> ZLattice:
    """(sub tensor Q) intersect ambient_lat, a primitive sublattice.

    The returned basis is canonical (Hermite form in ambient coordinates),
    so saturating twice reproduces the same object.
    """
    basis = intmat.mat_mul(_saturation(sub, ambient_lat)[0], [list(r) for r in ambient_lat.basis])
    return ZLattice(basis, ambient_lat.ambient, ok_module=sub.ok_module)


def saturation_index(sub: ZLattice, ambient_lat: ZLattice) -> int:
    """Index of sub inside its saturation."""
    return _saturation(sub, ambient_lat)[1]


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
                span_rows.append(flatten_kvector(fld, row))
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
    prods = [flatten_kvector(fld, tuple(u * x for x in unflatten_kvector(fld, list(row))))
             for row in lat.basis for u in fld.basis_elements()]
    sol = lat._coords(prods)
    if sol is None or any(c.denominator != 1 for row in sol for c in row):
        raise ValueError("lattice is not stable under the integral basis action")


def _in_span(span_rows, lat: ZLattice, coords) -> bool:
    return intmat.rank(span_rows + [lat.to_ambient(coords)]) == intmat.rank(span_rows)


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

"""Canonical echelon matrices over K and their primitive integral modules.

An echelon matrix D (row-reduced, maximal rank) canonically represents a
point of Gr(k, K^m); its module Lambda_D is the set of integral vectors in
the row space.  This file implements the three-way dictionary between those
objects and the height/denominator data attached to them.  Every echelon
matrix comes from one batched integer Gauss-Jordan pass, `_echelon_keys`, as
an integer key; one module data pass, `_modules`, takes Lambda_D and Den(D)
of all keys of one shape from one batched Hermite form
(intmat.saturation_basis) and H^2 from one batched reduction of their integer
Grams, and returns them as one ModuleSet: columns of keys, Hermite bases,
Grams, Den(D), exact H^2 and float heights.  The set orders, cuts and sums
on those columns; a PrimitiveModule is built from them only when an entry is
read, and forms Fractions only when its echelon or lattice is read.
One search finds modules: `span_modules` takes Lambda_D for the K-spans of k
independent short vectors of O_K^m, at every k through that pass.  The
complete enumeration of primitive rank-k modules below a height bound runs
it on the vectors that the successive minima allow, and the stratified count
on the vectors that can be rows of a counted matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import intmat, kernels
from .exactval import PowerProduct
from .numfield import (
    NumberField,
    _regular_rows,
    flatten_kvector,
    unflatten_kvector,
)
from .zlattice import (
    Ambient,
    ZLattice,
    _check_ok_stable,
    _height_sq,
    _height_sq_ratio,
    _int_norms,
    _reduced_gram,
    _scale_power,
    _scaled_floats,
    is_primitive_in,
    okn_lattice,
    short_vectors,
    shortest_nonzero_sqnorm,
    unit_ball_volume,
)


@dataclass(frozen=True)
class EchelonMatrix:
    """Row-reduced echelon matrix of maximal rank k over K; canonical by value."""

    field: NumberField
    rows: tuple          # k rows of m FieldElements; column pivot_cols[i] is e_i
    pivot_cols: tuple

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def key(self):
        """Hashable canonical serialization (nested coordinate tuples)."""
        return tuple(tuple(x.coords for x in row) for row in self.rows)

    def entry_strings(self):
        return [[",".join(str(c) for c in x.coords) for x in row] for row in self.rows]

    def __repr__(self):
        return f"EchelonMatrix(k={self.k}, m={self.m}, pivots={self.pivot_cols})"


def _echelon(field: NumberField, phi_rows) -> EchelonMatrix:
    """Echelon form of a K-stable row space; its k is the K-rank (0 for zero).

    phi_rows are rational rows, in power coordinates, that span a K-stable
    subspace of K^m over Q (the rows of Phi(A), or a Z-basis of an O_K-module);
    scaled to integers, they go through _echelon_keys as a batch of one matrix.
    """
    ints = intmat._integral(phi_rows)[1]
    width = len(ints[0]) if ints else 0
    batch = np.array(ints, dtype=object).reshape(1, len(ints), width)
    key = _echelon_keys(field, batch)[0]
    return _echelon_matrix(field, (len(key) - 1) // (width + 1), key)


def _echelon_keys(field: NumberField, phi: np.ndarray, k: int | None = None,
                  known=()) -> list:
    """The distinct echelon keys of the row spaces of a batch of integer Phi rows.

    phi[i] holds rational rows, each scaled to integers, that span a K-stable
    subspace of K^m over Q: the d rows of L Phi(v) for each v of a tuple of
    candidates (see _candidates), or a Z-basis of an O_K-module.  Its
    rational RREF is Phi of its RREF over K, so rows 0, d, 2d, ... of it are
    the K-rows and every d-th pivot, over d, is a K-pivot.  One
    kernels.gauss_jordan pass gives den * RREF for the whole batch.  The key
    of a matrix, the tuple of its k K-pivots, den and the k K-rows over their
    gcd in power coordinates, signed so that den > 0, is canonical, so the
    batch is deduplicated in integers; _echelon_matrix builds the Fractions.

    Returns the keys in first-occurrence order, of the matrices of K-rank k
    (of any K-rank when k is None) whose key is not in `known`.
    """
    d, width = field.degree, phi.shape[2]
    R, rank, pivots, den = kernels.gauss_jordan(phi)
    found: dict = {}
    for kk in (k,) if k is not None else set((rank // d).tolist()):
        sel = np.flatnonzero(rank == kk * d)
        rows = R[sel, :kk * d:d].reshape(len(sel), kk * width)
        g = np.gcd(np.gcd.reduce(rows, axis=1), den[sel]) * np.where(den[sel] < 0, -1, 1)
        keys = np.column_stack([pivots[sel, :kk * d:d] // d, den[sel] // g, rows // g[:, None]])
        found.update(dict.fromkeys(key for key in map(tuple, keys.tolist()) if key not in known))
    return list(found)


def _echelon_matrix(field: NumberField, k: int, key) -> EchelonMatrix:
    """The EchelonMatrix of an echelon key with k K-rows (see _echelon_keys)."""
    den, entries = key[k], key[k + 1:]
    width = len(entries) // k if k else 0
    return EchelonMatrix(field=field, pivot_cols=key[:k], rows=tuple(
        unflatten_kvector(field, [Fraction(x, den) for x in entries[i * width:(i + 1) * width]])
        for i in range(k)))


def _key_of(D: EchelonMatrix):
    """The echelon key of D (see _echelon_keys): den is the lcm of the
    denominators of its entries, so den and the rows den * D have gcd 1."""
    coords = [c for row in D.rows for x in row for c in x.coords]
    den = math.lcm(*(c.denominator for c in coords))
    return (*D.pivot_cols, den, *(c.numerator * (den // c.denominator) for c in coords))


def _echelon_of_rows(field: NumberField, mat) -> EchelonMatrix:
    """Echelon form of the row space of a K-matrix."""
    return _echelon(field, _regular_rows(field, [flatten_kvector(field, row) for row in mat]))


def to_echelon(field: NumberField, rows) -> EchelonMatrix:
    """Unique echelon form of a full-rank k x m matrix over K."""
    D = _echelon_of_rows(field, rows)
    if D.k < len(rows):
        raise ValueError(f"matrix has rank {D.k} < {len(rows)}")
    return D


def rank_factorize(field: NumberField, rows):
    """A = C * D with D echelon; unique. C is A restricted to D's pivot columns."""
    mat = [[field.coerce(x) for x in row] for row in rows]
    D = _echelon_of_rows(field, mat)
    if D.k == 0:
        raise ValueError("zero matrix has no rank factorization")
    C = [[row[p] for p in D.pivot_cols] for row in mat]
    return C, D


class PrimitiveModule:
    """An echelon matrix together with its module Lambda_D, height and denominator.

    Entry i of a ModuleSet, built the first time it is read: the echelon key
    of D, the Hermite basis of Lambda_D in integral coordinates, its checked
    Gram (gram_int rows, gram_den, det), the float H and Den(D).  H^2 as a
    PowerProduct, and `echelon` and `lattice`, which hold Fractions, are
    built from them the first time something reads them, the lattice by the
    ZLattice constructor, which takes the checked Gram.
    """

    def __init__(self, modules: "ModuleSet", i: int):
        self.field, self.k, self.m = modules.field, modules.k, modules.m
        key = modules.keys[i]
        S, gram_int, gram_den, det, dens, heights = modules._lists()
        self.pivot_cols = key[:self.k]
        self.height = heights[i]
        self.denominator = dens[i]
        self._key, self._ambient, self._scale = key, modules.ambient, modules.scale
        self._hermite = S[i]
        self._gram = gram_int[i], gram_den[i], det[i]
        self._column_grams, self._index = modules.column_grams, i

    @functools.cached_property
    def height_sq(self) -> PowerProduct:
        r = self.k * self.field.degree
        return _height_sq(self._scale, r, self._gram[2], self._gram[1])

    @property
    def gram_int(self):
        """The integer Gram rows of Lambda_D's Hermite basis, as ZLattice.gram_int,
        read without building the lattice."""
        return self._gram[0]

    @property
    def gram_den(self) -> int:
        return self._gram[1]

    @functools.cached_property
    def echelon(self) -> EchelonMatrix:
        return _echelon_matrix(self.field, self.k, self._key)

    @functools.cached_property
    def lattice(self) -> ZLattice:
        _, bnum, bden = _field_maps(self.field)
        basis = [[Fraction(v, bden) for v in row]
                 for row in _blockwise(self._hermite, bnum, self.field.degree)]
        return ZLattice(basis, self._ambient, gram=self._gram)

    def key(self):
        return self.echelon.key()

    def _order(self):
        """A sort key that orders the modules of one k and m as (H, key()) does."""
        return self.height, _Entries.of(self._key, self.k)


class ModuleSet(Sequence):
    """The primitive modules of one module data pass (_modules), as columns.

    All modules have k K-rows in K^m.  Per module i: keys[i], the echelon
    key of D; S[i], the Hermite basis of Lambda_D in integral coordinates;
    gram_int[i], gram_den[i] and det[i], its checked Gram, whose integers
    det[i] and gram_den[i] give H^2 exactly over the one scale =
    _scale_power(scale_sq, k d) of the set (zlattice._height_sq_ratio);
    denominators[i], Den(D); hsq[i], the float of H^2 as
    PowerProduct.__float__ gives it, and heights[i] = sqrt(hsq[i]), the float
    H.  A sequence of PrimitiveModule: entry i is built from these columns
    the first time it is read, and kept.
    """

    def __init__(self, field: NumberField, k: int, ambient: Ambient, keys: list,
                 S, gram_int, gram_den, det, denominators, hsq, heights):
        self.field, self.k, self.ambient = field, k, ambient
        self.m = ambient.dim // field.degree
        self.scale = _scale_power(ambient.scale_sq, k * field.degree)
        self.keys, self.S, self.gram_int = keys, S, gram_int
        self.gram_den, self.det = gram_den, det
        self.denominators, self.hsq, self.heights = denominators, hsq, heights
        self.column_grams = _ColumnGrams(self)
        self._built = [None] * len(keys)
        self._columns_as_lists = None

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._take(np.arange(len(self))[i])
        P = self._built[i]
        return P if P is not None else self._build(range(len(self))[i])

    def __iter__(self):
        for i, P in enumerate(self._built):
            yield P if P is not None else self._build(i)

    def _build(self, i: int) -> PrimitiveModule:
        P = self._built[i] = PrimitiveModule(self, i)
        return P

    def height_sq_at(self, i: int) -> PowerProduct:
        """H^2 of module i, exactly, without building the entry."""
        return _height_sq(self.scale, self.k * self.field.degree, int(self.det[i]),
                          int(self.gram_den[i]))

    def _lists(self) -> tuple:
        """The columns a PrimitiveModule reads, in Python ints and floats,
        converted together the first time an entry is built."""
        if self._columns_as_lists is None:
            self._columns_as_lists = tuple(a.tolist() for a in (
                self.S, self.gram_int, self.gram_den, self.det, self.denominators, self.heights))
        return self._columns_as_lists

    def _take(self, idx: np.ndarray) -> "ModuleSet":
        """The modules idx, in that order."""
        return ModuleSet(self.field, self.k, self.ambient, [self.keys[i] for i in idx.tolist()],
                         *(a[idx] for a in (self.S, self.gram_int, self.gram_den, self.det,
                                            self.denominators, self.hsq, self.heights)))

    def _sorted(self) -> "ModuleSet":
        """The modules in (H, key()) order.

        One stable argsort of the float heights; within each run of equal
        heights, the echelon entries (_Entries) decide, as in
        PrimitiveModule._order.
        """
        order = np.argsort(self.heights, kind="stable")
        h = self.heights[order]
        ties = h[1:] == h[:-1]
        if ties.any():
            # a run of equal heights h[a..b] flips ties to True at a and back at b
            edges = np.flatnonzero(np.diff(np.concatenate(([False], ties, [False]))))
            order = order.tolist()
            for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
                order[a:b + 1] = sorted(order[a:b + 1],
                                        key=lambda i: _Entries.of(self.keys[i], self.k))
            order = np.array(order, dtype=np.intp)
        return self._take(order)


class _ColumnGrams:
    """Per module of a set, the m column Grams S_j G_jj S_j^T (see _okm_form)
    as nested lists, G_jj the d x d block of column j: one integer product
    per column for the whole set, on S's dtype, which holds S G S^T, formed
    the first time one is read.  Entries hold this and not their set, so no
    reference cycle outlives a call.
    """

    __slots__ = ("S", "ambient", "degree", "_grams")

    def __init__(self, modules: ModuleSet):
        self.S, self.ambient, self.degree = modules.S, modules.ambient, modules.field.degree
        self._grams = None

    def __getitem__(self, i: int) -> list:
        if self._grams is None:
            d, (B, r, width) = self.degree, self.S.shape
            G = _okm_form(self.ambient)[0].astype(self.S.dtype)
            S = self.S.reshape(B, r, width // d, d)
            blocks = [G[c:c + d, c:c + d] for c in range(0, width, d)]
            self._grams = np.stack([S[:, :, j] @ G_jj @ S[:, :, j].transpose(0, 2, 1)
                                    for j, G_jj in enumerate(blocks)], axis=1).tolist()
        return self._grams[i]


class _Entries:
    """The entries x / den of an echelon key, compared as a tuple of Fractions
    by cross-multiplying, with no Fraction formed.

    key() nests the same Fractions, in the same order, in tuples of equal
    lengths, so the two compare alike between keys of one k and m.
    """

    __slots__ = ("den", "rows")

    def __init__(self, den: int, rows):
        self.den, self.rows = den, rows

    @classmethod
    def of(cls, key, k: int) -> "_Entries":
        """The entries of an echelon key with k K-rows."""
        return cls(key[k], key[k + 1:])

    def __lt__(self, other: "_Entries") -> bool:
        for x, y in zip(self.rows, other.rows):
            if x * other.den != y * self.den:
                return x * other.den < y * self.den
        return False


@functools.lru_cache(maxsize=16)
def _field_maps(field: NumberField):
    """Integer data of K used by every module, computed once per field.

    Returns (mults, bnum, bden): mults[b][j] holds the integral coordinates
    of u_b * theta^j, so a row x of power coordinates maps to the integral
    coordinates x * mults[b] of u_b * x; and the integral basis in power
    coordinates is bnum / bden.
    """
    d = field.degree
    units = [field.element([int(i == j) for i in range(d)]) for j in range(d)]
    mults = tuple(tuple(tuple(field.integral_coords(u * t)) for t in units)
                  for u in field.basis_elements())
    bden, bnum = intmat._integral(field.integral_basis)
    return mults, tuple(map(tuple, bnum)), bden


@functools.lru_cache(maxsize=16)
def _okm_form(ambient: Ambient):
    """(G, total): ambient's form on the integral coordinates of O_K^m is G / total.

    G = W F W^T over the integers, with W = diag(bnum, ..., bnum) and F the
    form times form_den, so total = bden^2 * form_den; a Hermite basis S of
    Lambda_D in integral coordinates has the Gram S G S^T / total.
    """
    field = ambient.field
    _, bnum, bden = _field_maps(field)
    W = _blockwise(intmat.identity(ambient.dim), bnum, field.degree)
    form_den, F = intmat._integral(ambient.form)
    G = intmat.mat_mul(intmat.mat_mul(W, F), intmat.transpose(W))
    return np.array(G, dtype=object), bden * bden * form_den


def _blockwise(rows, blk, d: int):
    """rows * diag(blk, ..., blk) over the integers, blk a d x d block."""
    out = []
    for row in rows:
        out_row = []
        for c in range(0, len(row), d):
            part = row[c:c + d]
            out_row.extend(sum(part[a] * blk[a][j] for a in range(d)) for j in range(d))
        out.append(out_row)
    return out


def _span_matrices(field: NumberField, k: int, keys):
    """(qs, spans): q and q * A of each echelon key with k K-rows, as (B,) and
    (B, k d, m d) integer arrays.

    Row i d + b of A holds the integral coordinates of u_b * D_i, so the rows
    of A span the O_K-module of D's row space over Z; q is the lcm of the
    denominators of A, so q * A is its smallest integral multiple.  A key
    holds den * D in power coordinates, which mults maps to the integral
    coordinates of den * u_b * D_i in one integer product for the batch; q is
    den over the gcd of den and the entries of that product.
    """
    d, n = field.degree, len(keys)
    arr = np.array(keys, dtype=object).reshape(n, -1)
    mults = np.array(_field_maps(field)[0], dtype=object)     # (b, j, l)
    max_key = int(np.max(np.abs(arr[:, k:])))
    dtype = kernels.int_dtype(d * max_key * int(np.max(np.abs(mults))))
    den = arr[:, k].astype(dtype)
    prod = arr[:, k + 1:].astype(dtype).reshape(-1, d) @ \
        mults.transpose(1, 0, 2).reshape(d, d * d).astype(dtype)
    out = prod.reshape(n, k, -1, d, d).transpose(0, 1, 3, 2, 4).reshape(n, k * d, -1)
    g = np.gcd(np.gcd.reduce(out.reshape(n, -1), axis=1), den)
    return den // g, out // g[:, None, None]


def _modules(field: NumberField, k: int, keys, ambient: Ambient) -> ModuleSet:
    """Lambda_D, Den(D) and H^2 of a batch of echelon keys with k K-rows, in integers.

    q * A (see _span_matrices) is the numerator of the rational RREF of the
    O_K-span of D's rows: A is the identity on the integral coordinates of
    D's pivot columns.  So one batched intmat.saturation_basis gives both the
    Hermite basis S of Lambda_D and its index Den(D) in that span for every
    key.  The Grams S G S^T (see _okm_form) are one integer product for the
    batch, and one _reduced_gram checks, scales and reduces them all, as the
    ZLattice constructor does for one; their determinants give H^2 and its
    floats.  Returns the modules as one ModuleSet, in the order of keys.
    """
    d = field.degree
    r, width = k * d, ambient.dim
    if not keys:
        none = np.zeros(0, dtype=np.int64)
        return ModuleSet(field, k, ambient, [], none.reshape(0, r, width),
                         none.reshape(0, r, r), none, none, none, np.zeros(0), np.zeros(0))
    S, dens = intmat.saturation_basis(*_span_matrices(field, k, keys))
    G, total = _okm_form(ambient)
    max_s = int(np.max(np.abs(S)))
    dtype = kernels.int_dtype(max(max_s * max_s * int(np.max(np.abs(G))) * width ** 2, total))
    S = S.astype(dtype)
    gram_int, gram_den, det = _reduced_gram(S @ G.astype(dtype) @ S.transpose(0, 2, 1), total)
    scale = _scale_power(ambient.scale_sq, r)
    coeff = scale.coeff
    bound = max(coeff.numerator * int(np.max(det)), coeff.denominator * int(np.max(gram_den)) ** r)
    hdtype = kernels.int_dtype(bound)
    num, den = _height_sq_ratio(scale, r, det.astype(hdtype), gram_den.astype(hdtype))
    hsq = _scaled_floats(num, den, scale, bound)
    return ModuleSet(field, k, ambient, keys, S, gram_int, gram_den, det, dens, hsq, np.sqrt(hsq))


def lambda_of(D: EchelonMatrix, ambient: Ambient | None = None) -> PrimitiveModule:
    """Lambda_D = (row space of D over K) intersect O_K^m, with height and denominator.

    The module data pass (_modules) on D's echelon key.
    """
    return _modules(D.field, D.k, [_key_of(D)], ambient or Ambient.for_field(D.field, D.m))[0]


def denominator(D: EchelonMatrix) -> int:
    """Index [O_K^k : {v in O_K^k : v D is integral}], computed over Z-coordinates."""
    return int(intmat.saturation_basis(*_span_matrices(D.field, D.k, [_key_of(D)]))[1][0])


def echelon_of_module(lat: ZLattice) -> EchelonMatrix:
    """The unique echelon D with Lambda_D equal to the given module (checked)."""
    field = lat.ambient.field
    if field is None:
        raise ValueError("lattice carries no field structure")
    d = field.degree
    if lat.rank % d:
        raise ValueError("Z-rank is not a multiple of the field degree")
    _check_ok_stable(lat)
    if not is_primitive_in(lat, okn_lattice(field, lat.ambient_dim // d)):
        raise ValueError("module is not primitive in O_K^m")
    # a Z-basis of an O_K-module spans its K-span over Q
    return _echelon(field, lat.basis)


# gamma_r^r for r = 1..8, Hermite's constant to the power r, known exactly in
# these ranks (Conway & Sloane, SPLAG, ch. 1)
_HERMITE_POWERS = (1, Fraction(4, 3), 2, 4, 8, Fraction(64, 3), 64, 256)


def _minkowski_constant(r: int) -> float:
    """A float at least gamma_r^(r/2), which bounds the product of the r
    successive minima of a rank-r lattice over its covolume (Minkowski's
    second theorem).  Beyond r = 8, Minkowski's gamma_r^(r/2) <= 2^r / V(r)."""
    if r > 8:
        # the pad covers the rounding of V(r) in floats
        return 2.0 ** r / unit_ball_volume(r) * (1 + 1e-12)
    power = Fraction(_HERMITE_POWERS[r - 1])
    c = math.sqrt(power)
    while Fraction(c) ** 2 < power:
        c = math.nextafter(c, math.inf)
    return c


# the float H^2 of a module is within (1 + 3 E) units of roundoff of the exact
# value, E the number of exponents of its scale (one correctly rounded
# quotient, then per exponent a libm pow within one ulp and a product), and
# the float of a rational bound within one: far inside this relative window
_CUT_WINDOW = 2.0 ** -40


def enumerate_primitive_modules(field: NumberField, k: int, m: int,
                                height_bound) -> ModuleSet:
    """All primitive rank-k O_K-modules in O_K^m with H <= height_bound, in (H, key) order.

    Search: every qualifying module has successive K-minima whose norms are
    bounded via Minkowski's second theorem, so the spans of k-tuples of short
    vectors (`span_modules`) exhaust the candidates.  The bound
    over-enumerates on purpose; completeness is what is tested.  The cut
    H^2 <= height_bound^2 is proposed by the float H^2 of the set and decided
    by the exact PowerProduct comparison within _CUT_WINDOW of the bound.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if isinstance(height_bound, float) and not math.isfinite(height_bound):
        raise ValueError(f"height_bound must be finite, got {height_bound}")
    bound = Fraction(height_bound)
    if bound < 1:
        raise ValueError("height_bound must be >= 1")
    d = field.degree
    if k == m:
        # Phi of the identity over K is the identity over Q
        keys = _echelon_keys(field, np.array(intmat.identity(m * d), dtype=object)[None])
        return _modules(field, m, keys, Ambient.for_field(field, m))

    okm = okn_lattice(field, m)
    nu = math.sqrt(float(shortest_nonzero_sqnorm(okm)))
    kd = k * d
    # prod ||l_i||^d <= prod of all kd Z-minima <= gamma_kd^(kd/2) H, and every
    # minimum is at least the shortest vector of O_K^m, so each ||l_i|| obeys:
    c6 = _minkowski_constant(kd)
    per_vec = (c6 * float(bound) / nu ** (d * (k - 1))) ** (1.0 / d)
    spans = span_modules(okm, k, per_vec * (1 + 1e-9),
                         prod_bound=c6 * float(bound) * (1 + 1e-6))
    bound_sq = bound ** 2
    b = float(bound_sq)
    keep = spans.hsq <= b
    for i in np.flatnonzero(np.abs(spans.hsq - b) <= _CUT_WINDOW * b).tolist():
        keep[i] = spans.height_sq_at(i) <= bound_sq
    return spans._take(np.flatnonzero(keep))


def span_modules(okm: ZLattice, k: int, radius,
                 prod_bound: float = math.inf) -> ModuleSet:
    """Lambda_D for every K-span of k independent vectors of okm = O_K^m with norm <= radius.

    The k-tuples of candidates, in itertools.combinations order, go through
    _echelon_keys in blocks of at most kernels._BLOCK; a tuple whose product
    of norms^d exceeds prod_bound (in floats) is dropped before its span is
    formed.  For k d = rank the first block with a span ends the search, as
    k independent vectors span all of K^m.  The distinct echelon keys go
    through the module data pass (_modules) once; the result is the
    ModuleSet in (H, key) order.
    """
    field = okm.ambient.field
    d = field.degree
    norms, phi = _candidates(okm, short_vectors(okm, radius))
    powers = np.array([x ** (d / 2.0) for x in norms.tolist()])
    combos = itertools.combinations(range(len(powers)), k)
    found: dict = {}
    for _ in range(0, math.comb(len(powers), k), kernels._BLOCK):
        flat = itertools.chain.from_iterable(itertools.islice(combos, kernels._BLOCK))
        tuples = np.fromiter(flat, dtype=np.int64).reshape(-1, k)
        # each product of norms^d in floats, factor by factor in tuple order
        tuples = tuples[functools.reduce(np.multiply, powers[tuples].T) <= prod_bound]
        new = _echelon_keys(field, phi[tuples].reshape(len(tuples), k * d, phi.shape[2]), k, found)
        found.update(dict.fromkeys(new))
        if new and k * d == okm.rank:
            break
    return _modules(field, k, list(found), okm.ambient)._sorted()


def _candidates(okm: ZLattice, vecs: np.ndarray):
    """(float squared norms, Phi rows) of the rows of vecs up to sign, sorted.

    vecs holds the lexicographically sorted points of a ball in O_K^m, so of
    v and -v the first is the one whose first nonzero entry is negative, and
    only that one is kept.  zlattice._int_norms gives the integer squared
    norms q; a norm's float is that of the exact PowerProduct scale_sq q /
    gram_den (zlattice._scaled_floats).  One integer product gives the d
    rows of Phi(v) (numfield._regular_rows) scaled by the lcm of the
    denominators of okm's basis, which is what _echelon_keys takes.  Both
    arrays are sorted by (norm, coordinates), in one lexsort.
    """
    field = okm.ambient.field
    d = field.degree
    if len(vecs):
        first = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
        vecs = vecs[first < 0]
    r = okm.rank
    phi = _regular_rows(field, intmat._integral(okm.basis)[1]).reshape(r, -1)
    max_v = int(np.max(np.abs(vecs))) if vecs.size else 0
    dtype = kernels.int_dtype(r * int(np.max(np.abs(phi))) * max_v)
    rows = (vecs.astype(dtype) @ phi.astype(dtype)).reshape(len(vecs), d, phi.shape[1] // d)
    q = _int_norms(vecs, okm.gram_int)
    scale = okm.scale_sq
    num, den = scale.coeff.numerator, scale.coeff.denominator * okm.gram_den
    max_q = num * (int(np.max(q)) if q.size else 0)
    if num != 1:
        q = q.astype(kernels.int_dtype(max_q)) * num
    norms = _scaled_floats(q, den, scale, max(max_q, den))
    order = np.lexsort((*vecs.T[::-1], norms))
    return norms[order], rows[order]


def schmidt_count(field: NumberField, k: int, m: int, T) -> int:
    return len(enumerate_primitive_modules(field, k, m, T))


def dump_module_lines(modules) -> str:
    """JSON-lines serialization of enumerated modules, one per line, sorted.

    Entries of D are exact "num/den" coordinate strings, heights decimal
    strings at 15 significant digits, denominators integers.
    """
    import json

    lines = []
    for P in sorted(modules, key=lambda P: (P.height, P.key())):
        # one "num/den" per power-basis coordinate, comma separated per entry
        entries = [[",".join(f"{c.numerator}/{c.denominator}" for c in x.coords)
                    for x in row] for row in P.echelon.rows]
        lines.append(json.dumps({
            "D": entries,
            "pivot_cols": list(P.echelon.pivot_cols),
            "H": f"{P.height:.15g}",
            "denominator": P.denominator,
        }))
    return "\n".join(lines) + ("\n" if lines else "")

"""Canonical echelon matrices over K and their primitive integral modules.

An echelon matrix D (row-reduced, maximal rank) canonically represents a
point of Gr(k, K^m); its module Lambda_D is the set of integral vectors in
the row space.  This file implements the three-way dictionary between those
objects and the height/denominator data attached to them; one Hermite
form (intmat.saturation_basis) gives both Lambda_D and Den(D).  Every echelon
matrix comes from one batched integer Gauss-Jordan pass, `_echelons`.  One
search finds modules: `span_modules` takes Lambda_D for the K-spans of k
independent short vectors of O_K^m, at every k through that pass.  The
complete enumeration of primitive rank-k modules below a height bound runs
it on the vectors that the successive minima allow, and the stratified count
on the vectors that can be rows of a counted matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    _integral,
    direct_sum,
    from_ok_rows,
    is_primitive_in,
    okn_lattice,
    short_vectors,
    shortest_nonzero_sqnorm,
    sublattice_coords,
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
    scaled to integers, they go through _echelons as a batch of one matrix.
    """
    ints = _integral(phi_rows)[1]
    batch = np.array(ints, dtype=object).reshape(1, len(ints), len(ints[0]) if ints else 0)
    return next(iter(_echelons(field, batch).values()))


def _echelons(field: NumberField, phi: np.ndarray, k: int | None = None,
              known=()) -> dict:
    """The distinct echelon forms of the row spaces of a batch of integer Phi rows.

    phi[i] holds rational rows, each scaled to integers, that span a K-stable
    subspace of K^m over Q: the d rows of L Phi(v) for each v of a tuple of
    candidates (see _candidates), or a Z-basis of an O_K-module.  Its
    rational RREF is Phi of its RREF over K, so rows 0, d, 2d, ... of it are
    the K-rows and every d-th pivot, over d, is a K-pivot.  One
    kernels.gauss_jordan pass gives den * RREF for the whole batch.  The key
    of a matrix, its K-pivots, den and K-rows over their gcd, signed so that
    den > 0, is canonical, so the batch is deduplicated before any Fraction.

    Returns {key: EchelonMatrix} in first-occurrence order, for the matrices
    of K-rank k (of any K-rank when k is None) whose key is not in `known`.
    """
    d, width = field.degree, phi.shape[2]
    R, rank, pivots, den = kernels.gauss_jordan(phi)
    found: dict = {}
    for kk in (k,) if k is not None else set((rank // d).tolist()):
        sel = np.flatnonzero(rank == kk * d)
        rows = R[sel, :kk * d:d].reshape(len(sel), kk * width)
        g = np.gcd(np.gcd.reduce(rows, axis=1), den[sel]) * np.where(den[sel] < 0, -1, 1)
        keys = np.column_stack([pivots[sel, :kk * d:d] // d, den[sel] // g, rows // g[:, None]])
        new = [key for key in dict.fromkeys(map(tuple, keys.tolist())) if key not in known]
        cuts = [slice(kk + 1 + i * width, kk + 1 + (i + 1) * width) for i in range(kk)]
        found.update(zip(new, [EchelonMatrix(field=field, pivot_cols=key[:kk], rows=tuple(
            [unflatten_kvector(field, [Fraction(x, key[kk]) for x in key[cut]]) for cut in cuts]))
            for key in new]))
    return found


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


@dataclass
class PrimitiveModule:
    """An echelon matrix together with its module Lambda_D, height and denominator."""

    echelon: EchelonMatrix
    lattice: ZLattice
    height: float
    height_sq: PowerProduct
    denominator: int

    def key(self):
        return self.echelon.key()


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
    bden, bnum = _integral(field.integral_basis)
    return mults, tuple(map(tuple, bnum)), bden


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


def _span_matrix(D: EchelonMatrix):
    """(q, q * A): row i d + b of A holds the integral coordinates of u_b * D_i.

    These rows span the O_K-module of D's row space over Z; q is the lcm of
    the denominators of A, so q * A is the smallest integral multiple.
    """
    field = D.field
    d = field.degree
    mults = _field_maps(field)[0]
    q = 1
    scaled = []
    for row in D.rows:
        coords = [c for x in row for c in x.coords]
        e = math.lcm(*(c.denominator for c in coords))
        num = [c.numerator * (e // c.denominator) for c in coords]
        for mult in mults:
            out = _blockwise([num], mult, d)[0]
            g = math.gcd(e, *out)  # the entries are out / e with lcm denominator e / g
            q = math.lcm(q, e // g)
            scaled.append((out, e // g, g))
    return q, [[(v // g) * (q // den) for v in out] for out, den, g in scaled]


def lambda_of(D: EchelonMatrix, ambient: Ambient | None = None) -> PrimitiveModule:
    """Lambda_D = (row space of D over K) intersect O_K^m, with height and denominator.

    q * A (see _span_matrix) is the numerator of the rational RREF of the
    O_K-span of D's rows: A is the identity on the integral coordinates of
    D's pivot columns.  So one intmat.saturation_basis gives both the
    Hermite basis of Lambda_D and its index Den(D) in that span.
    """
    field = D.field
    sat, den = intmat.saturation_basis(*_span_matrix(D))
    _, bnum, bden = _field_maps(field)
    basis = [[Fraction(v, bden) for v in row] for row in _blockwise(sat, bnum, field.degree)]
    lat = ZLattice(basis, ambient or Ambient.for_field(field, D.m), ok_module=True)
    hsq = lat.height_sq()
    return PrimitiveModule(echelon=D, lattice=lat, height=math.sqrt(float(hsq)),
                           height_sq=hsq, denominator=den)


def denominator(D: EchelonMatrix) -> int:
    """Index [O_K^k : {v in O_K^k : v D is integral}], computed over Z-coordinates."""
    return intmat.saturation_basis(*_span_matrix(D))[1]


def echelon_of_module(lat: ZLattice, check: bool = True) -> EchelonMatrix:
    """The unique echelon D with Lambda_D equal to the given module."""
    field = lat.ambient.field
    if field is None:
        raise ValueError("lattice carries no field structure")
    d = field.degree
    if lat.rank % d:
        raise ValueError("Z-rank is not a multiple of the field degree")
    if check:
        from .zlattice import _check_ok_stable

        _check_ok_stable(lat)
        amb_lat = okn_lattice(field, lat.ambient_dim // d)
        if not is_primitive_in(lat, amb_lat):
            raise ValueError("module is not primitive in O_K^m")
    # a Z-basis of an O_K-module spans its K-span over Q
    return _echelon(field, lat.basis)


def enumerate_primitive_modules(field: NumberField, k: int, m: int,
                                height_bound) -> list[PrimitiveModule]:
    """All primitive rank-k O_K-modules in O_K^m with H <= height_bound.

    Search: every qualifying module has successive K-minima whose norms are
    bounded via the Minkowski-type product inequality, so the spans of
    k-tuples of short vectors (`span_modules`) exhaust the candidates.  The
    bound constant over-enumerates on purpose; completeness is what is tested.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    bound = Fraction(height_bound)
    if bound < 1:
        raise ValueError("height_bound must be >= 1")
    d = field.degree
    if k == m:
        # Phi of the identity over K is the identity over Q
        return [lambda_of(_echelon(field, intmat.identity(m * d)))]

    okm = okn_lattice(field, m)
    nu = math.sqrt(float(shortest_nonzero_sqnorm(okm)))
    kd = k * d
    # prod ||l_i||^d <= prod of all kd Z-minima <= 2^(kd(kd-1)/4) H, and every
    # minimum is at least the shortest vector of O_K^m, so each ||l_i|| obeys:
    c6 = 2.0 ** (kd * (kd - 1) / 4.0)
    per_vec = (c6 * float(bound) / nu ** (d * (k - 1))) ** (1.0 / d)
    bound_sq = PowerProduct.coerce(bound ** 2)
    spans = span_modules(okm, k, per_vec * (1 + 1e-9),
                         prod_bound=c6 * float(bound) * (1 + 1e-6))
    return [P for P in spans if P.height_sq <= bound_sq]


def span_modules(okm: ZLattice, k: int, radius,
                 prod_bound: float = math.inf) -> list[PrimitiveModule]:
    """Lambda_D for every K-span of k independent vectors of okm = O_K^m with norm <= radius.

    The k-tuples of candidates, in itertools.combinations order, go through
    _echelons in blocks of at most kernels._BLOCK; a tuple whose product of
    norms^d exceeds prod_bound (in floats) is dropped before its span is
    formed.  For k d = rank the first block with a span ends the search, as
    k independent vectors span all of K^m.  Each distinct echelon key gets
    one lambda_of; the result is sorted by (H, key).
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
        new = _echelons(field, phi[tuples].reshape(len(tuples), k * d, phi.shape[2]), k, found)
        found.update(new)
        if new and k * d == okm.rank:
            break
    modules = [lambda_of(D, okm.ambient) for D in found.values()]
    return sorted(modules, key=lambda P: (P.height, P.key()))


def _candidates(okm: ZLattice, vecs: np.ndarray):
    """(float squared norms, Phi rows) of the rows of vecs up to sign, sorted.

    vecs holds the lexicographically sorted points of a ball in O_K^m, so of
    v and -v the first is the one whose first nonzero entry is negative, and
    only that one is kept.  One integer quadratic form gives the squared
    norms; a norm's float is that of the exact PowerProduct, as int / int
    division rounds correctly.  One integer product gives the d rows of
    Phi(v) (numfield._regular_rows) scaled by the lcm of the denominators of
    okm's basis, which is what _echelons takes.  Both arrays are sorted by
    (norm, coordinates).
    """
    field = okm.ambient.field
    d = field.degree
    if len(vecs):
        first = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
        vecs = vecs[first < 0]
    gden, g_int = okm.gram_den, okm.gram_int
    r = okm.rank
    phi = _regular_rows(field, _integral(okm.basis)[1]).reshape(r, -1)
    max_v = int(np.max(np.abs(vecs))) if vecs.size else 0
    max_gb = max(max(abs(x) for row in g_int for x in row), int(np.max(np.abs(phi))))
    dtype = kernels.int_dtype(r * r * max_gb * (max_v + 1) ** 2)
    V = vecs.astype(dtype)
    sq_int = ((V @ np.array(g_int, dtype=dtype)) * V).sum(axis=1).tolist()
    rows = (V @ phi.astype(dtype)).reshape(len(V), d, phi.shape[1] // d)
    scale = okm.scale_sq
    num, den = scale.coeff.numerator, scale.coeff.denominator * gden
    norms = []
    for q in sq_int:
        key = (q * num) / den
        for p, e in scale.exps:
            key *= math.pow(p, float(e))
        norms.append(key)
    coords = vecs.tolist()
    order = sorted(range(len(norms)), key=lambda i: (norms[i], coords[i]))
    return np.array(norms, dtype=float)[order], rows[order]


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


def matrices_with_rows(n: int, P: PrimitiveModule, radius):
    """All elements of M_n(Lambda_D) with Frobenius twisted norm <= radius, as K-matrices."""
    stacked = direct_sum(P.lattice, n)
    coords = short_vectors(stacked, radius).tolist()
    r = P.lattice.rank
    out = []
    for c in coords:
        rows = [P.lattice.kvector_of_coords(c[t * r:(t + 1) * r]) for t in range(n)]
        out.append(rows)
    return out


def matrix_module_index(D: EchelonMatrix, n: int) -> int:
    """[M_{n x k}(O_K) D : M_n(Lambda_D)] = |det X|^n, exact.

    X holds the coordinates of Lambda_D in the Z-basis of the O_K-span of
    D's rows; it is square and nonsingular, as both have Z-rank kd.
    """
    X = sublattice_coords(lambda_of(D).lattice, from_ok_rows(D.field, D.rows))
    return int(abs(intmat.det(X))) ** n


def jacobian_sq(D: EchelonMatrix) -> Fraction:
    """Squared volume scaling of x -> x D on M_{1 x k}(K_R), exact rational."""
    # the image of O_K^k is the O_K-span of D's rows
    return from_ok_rows(D.field, D.rows).det_gram() / okn_lattice(D.field, D.k).det_gram()


def jacobian(D: EchelonMatrix) -> float:
    return math.sqrt(float(jacobian_sq(D)))

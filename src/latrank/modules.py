"""Canonical echelon matrices over K and their primitive integral modules.

An echelon matrix D (row-reduced, maximal rank) canonically represents a
point of Gr(k, K^m); its module Lambda_D is the set of integral vectors in
the row space.  This file implements the three-way dictionary between those
objects, the height/denominator data attached to them, and the complete
enumeration of primitive rank-k modules below a height bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import intmat
from .exactval import PowerProduct
from .numfield import (
    NumberField,
    flatten_kvector,
    k_rref,
    rank_over_K,
    unflatten_kvector,
)
from .zlattice import (
    Ambient,
    ZLattice,
    direct_sum,
    is_primitive_in,
    okn_lattice,
    short_vectors,
    shortest_nonzero_sqnorm,
)


@dataclass(frozen=True)
class EchelonMatrix:
    """Row-reduced echelon matrix of maximal rank k over K; canonical by value."""

    field: NumberField
    rows: tuple          # k rows, each a tuple of FieldElement, length m
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


def to_echelon(field: NumberField, rows) -> EchelonMatrix:
    """Unique echelon form of a full-rank k x m matrix over K."""
    mat = [[field.coerce(x) for x in row] for row in rows]
    R, pivots, rk = k_rref(mat)
    if rk < len(mat):
        raise ValueError(f"matrix has rank {rk} < {len(mat)}")
    return EchelonMatrix(field=field, rows=tuple(tuple(r) for r in R[:rk]),
                         pivot_cols=tuple(pivots))


def rank_factorize(field: NumberField, rows):
    """A = C * D with D echelon; unique. C is A restricted to D's pivot columns."""
    mat = [[field.coerce(x) for x in row] for row in rows]
    R, pivots, rk = k_rref(mat)
    if rk == 0:
        raise ValueError("zero matrix has no rank factorization")
    D = EchelonMatrix(field=field, rows=tuple(tuple(r) for r in R[:rk]),
                      pivot_cols=tuple(pivots))
    C = [[row[p] for p in pivots] for row in mat]
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


def _w_blocks(field: NumberField, m: int):
    """Block-diagonal integral-basis matrix of O_K^m in power coordinates, and inverse."""
    d = field.degree
    W = [[Fraction(0)] * (m * d) for _ in range(m * d)]
    Winv = [[Fraction(0)] * (m * d) for _ in range(m * d)]
    for c in range(m):
        for i in range(d):
            for j in range(d):
                W[c * d + i][c * d + j] = field.integral_basis[i][j]
                Winv[c * d + i][c * d + j] = field._basis_inv[i][j]
    return W, Winv


def lambda_of(D: EchelonMatrix, ambient: Ambient | None = None) -> PrimitiveModule:
    """Lambda_D = (row space of D over K) intersect O_K^m, with height and denominator."""
    field = D.field
    m = D.m
    ambient = ambient or Ambient.for_field(field, m)
    span_rows = [flatten_kvector(field, r) for r in field.ok_z_basis(D.rows)]
    _, Winv = _w_blocks(field, m)
    A = intmat.mat_mul(span_rows, Winv)
    q = intmat.lcm_denominator(A)
    A_int = [[int(x * q) for x in row] for row in A]
    sat = intmat.saturation_basis(A_int)
    W, _ = _w_blocks(field, m)
    basis = intmat.mat_mul(sat, W)
    lat = ZLattice(basis, ambient, ok_module=True)
    hsq = lat.height_sq()
    return PrimitiveModule(echelon=D, lattice=lat, height=math.sqrt(float(hsq)),
                           height_sq=hsq, denominator=denominator(D))


def denominator(D: EchelonMatrix) -> int:
    """Index [O_K^k : {v in O_K^k : v D is integral}], computed over Z-coordinates."""
    field = D.field
    k, m, d = D.k, D.m, field.degree
    theta_pows = [field.one()]
    theta = field.gen()
    for _ in range(d - 1):
        theta_pows.append(theta_pows[-1] * theta)
    t_rows = []
    for i in range(k):
        for a in range(d):
            image = tuple(theta_pows[a] * x for x in D.rows[i])
            t_rows.append(flatten_kvector(field, image))
    Wk, _ = _w_blocks(field, k)
    _, Wm_inv = _w_blocks(field, m)
    B = intmat.mat_mul(intmat.mat_mul(Wk, t_rows), Wm_inv)
    q = intmat.lcm_denominator(B)
    C = [[int(x * q) for x in row] for row in B]
    divisors, _, _ = intmat.smith_normal_form(C)
    idx = 1
    for dv in divisors:
        if dv == 0:
            raise ValueError("echelon matrix is not of full rank")
        idx *= q // math.gcd(dv, q)
    return idx


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
    kvecs = [unflatten_kvector(field, list(row)) for row in lat.basis]
    R, pivots, rk = k_rref([list(v) for v in kvecs])
    return EchelonMatrix(field=field, rows=tuple(tuple(r) for r in R[:rk]),
                         pivot_cols=tuple(pivots))


def _echelon_of_kspan(field: NumberField, kvecs) -> EchelonMatrix | None:
    R, pivots, rk = k_rref([list(v) for v in kvecs])
    if rk < len(kvecs):
        return None
    return EchelonMatrix(field=field, rows=tuple(tuple(r) for r in R[:rk]),
                         pivot_cols=tuple(pivots))


def _identity_echelon(field: NumberField, k: int) -> EchelonMatrix:
    rows = tuple(tuple(field.one() if i == j else field.zero() for j in range(k))
                 for i in range(k))
    return EchelonMatrix(field=field, rows=rows, pivot_cols=tuple(range(k)))


def enumerate_primitive_modules(field: NumberField, k: int, m: int, height_bound,
                                cap: int | None = None) -> list[PrimitiveModule]:
    """All primitive rank-k O_K-modules in O_K^m with H <= height_bound.

    Search: every qualifying module has successive K-minima whose norms are
    bounded via the Minkowski-type product inequality, so k-tuples of short
    vectors exhaust the candidates.  The bound constant over-enumerates on
    purpose; completeness is what is tested.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    bound = Fraction(height_bound)
    if bound < 1:
        raise ValueError("height_bound must be >= 1")
    ambient = Ambient.for_field(field, m)
    if k == m:
        return [lambda_of(_identity_echelon(field, k), ambient)]

    d = field.degree
    okm = okn_lattice(field, m)
    nu = math.sqrt(float(shortest_nonzero_sqnorm(okm)))
    kd = k * d
    # prod ||l_i||^d <= prod of all kd Z-minima <= 2^(kd(kd-1)/4) H, and every
    # minimum is at least the shortest vector of O_K^m, so each ||l_i|| obeys:
    c6 = 2.0 ** (kd * (kd - 1) / 4.0)
    per_vec = (c6 * float(bound) / nu ** (d * (k - 1))) ** (1.0 / d)
    vecs = map(tuple, short_vectors(okm, per_vec * (1 + 1e-9), cap=cap).tolist())

    # nonzero vectors up to sign, as K-rows
    seen_sign = set()
    candidates = []
    for v in vecs:
        if all(c == 0 for c in v):
            continue
        neg = tuple(-c for c in v)
        if neg in seen_sign:
            continue
        seen_sign.add(v)
        kvec = okm.kvector_of_coords(v)
        sq = okm.sqnorm_exact_of_coords(v)
        candidates.append((float(sq), v, kvec))
    candidates.sort(key=lambda t: (t[0], t[1]))

    bound_sq = PowerProduct.coerce(bound ** 2)
    found: dict = {}
    if k == 1:
        for _, _, kvec in candidates:
            D = _echelon_of_kspan(field, [kvec])
            if D.key() in found:
                continue
            P = lambda_of(D, ambient)
            if P.height_sq <= bound_sq:
                found[D.key()] = P
    else:
        prod_bound = c6 * float(bound)
        for combo in itertools.combinations(candidates, k):
            norms = [t[0] for t in combo]
            if math.prod(n ** (d / 2.0) for n in norms) > prod_bound * (1 + 1e-6):
                continue
            kvecs = [t[2] for t in combo]
            if rank_over_K([list(v) for v in kvecs]) < k:
                continue
            D = _echelon_of_kspan(field, kvecs)
            if D is None or D.key() in found:
                continue
            P = lambda_of(D, ambient)
            if P.height_sq <= bound_sq:
                found[D.key()] = P
    out = sorted(found.values(), key=lambda P: (P.height, P.key()))
    return out


def schmidt_count(field: NumberField, k: int, m: int, T, cap: int | None = None) -> int:
    return len(enumerate_primitive_modules(field, k, m, T, cap=cap))


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


def matrices_with_rows(n: int, P: PrimitiveModule, radius, cap: int | None = None):
    """All elements of M_n(Lambda_D) with Frobenius twisted norm <= radius, as K-matrices."""
    stacked = direct_sum(P.lattice, n)
    coords = short_vectors(stacked, radius, cap=cap).tolist()
    r = P.lattice.rank
    out = []
    for c in coords:
        rows = [P.lattice.kvector_of_coords(c[t * r:(t + 1) * r]) for t in range(n)]
        out.append(rows)
    return out


def matrix_module_index(D: EchelonMatrix, n: int) -> int:
    """[M_{n x k}(O_K) D : M_n(Lambda_D)], exact, via Smith normal form."""
    field = D.field
    big_rows = [flatten_kvector(field, r) for r in field.ok_z_basis(D.rows)]
    P = lambda_of(D)
    sub_rows = [list(r) for r in P.lattice.basis]
    # coordinates of the sublattice in the big lattice's basis
    X = []
    for row in sub_rows:
        M = [[big_rows[i][j] for i in range(len(big_rows))] for j in range(len(row))]
        aug = [mrow + [Fraction(v)] for mrow, v in zip(M, row)]
        R, pivots, rk = intmat.rref(aug)
        sol = [Fraction(0)] * len(big_rows)
        for t, p in enumerate(pivots):
            if p == len(big_rows):
                raise ValueError("module is not contained in M(O_K) D")
            sol[p] = R[t][len(big_rows)]
        for j in range(len(row)):
            if sum(sol[i] * big_rows[i][j] for i in range(len(big_rows))) != row[j]:
                raise ValueError("inconsistent containment")
        if any(s.denominator != 1 for s in sol):
            raise ValueError("module is not contained in M(O_K) D")
        X.append([int(s) for s in sol])
    # n-fold block structure
    kd = len(big_rows)
    Xn = [[0] * (kd * n) for _ in range(kd * n)]
    for t in range(n):
        for i in range(kd):
            for j in range(kd):
                Xn[t * kd + i][t * kd + j] = X[i][j]
    divisors, _, _ = intmat.smith_normal_form(Xn)
    idx = 1
    for dv in divisors:
        idx *= abs(dv)
    return idx


def jacobian_sq(D: EchelonMatrix) -> Fraction:
    """Squared volume scaling of x -> x D on M_{1 x k}(K_R), exact rational."""
    field = D.field
    img_rows = [flatten_kvector(field, r) for r in field.ok_z_basis(D.rows)]
    amb = Ambient.for_field(field, D.m)
    g_img = [[amb.qform(u, v) for v in img_rows] for u in img_rows]
    det_img = intmat.det(g_img)
    dom = Ambient.for_field(field, D.k)
    dom_rows = [flatten_kvector(field, r)
                for r in field.ok_z_basis([
                    tuple(field.one() if j == i else field.zero() for j in range(D.k))
                    for i in range(D.k)])]
    g_dom = [[dom.qform(u, v) for v in dom_rows] for u in dom_rows]
    det_dom = intmat.det(g_dom)
    return det_img / det_dom


def jacobian(D: EchelonMatrix) -> float:
    return math.sqrt(float(jacobian_sq(D)))

"""Shared test oracles, independent of the library's enumeration path."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from latrank import hecke, intmat, kernels
from latrank.counting import Ball, _truncated_product
from latrank.errors import NotIntegralError
from latrank.exactval import PowerProduct
from latrank.hecke import enumerate_subspaces, hecke_neighbor, sample_subspace
from latrank.modules import enumerate_primitive_modules, lambda_of, span_modules
from latrank.zlattice import (
    _int_norms,
    _norm_bound,
    direct_sum,
    from_ok_rows,
    okn_lattice,
    short_vectors,
    sublattice_coords,
    unit_ball_volume,
)


def brute_force_short(lat, radius_sq: Fraction):
    """Box enumeration oracle: coordinate bounds from the dual Gram diagonal."""
    r = lat.rank
    g = [[Fraction(x) for x in row] for row in lat.gram]
    ginv = intmat.inverse(g)
    bound = PowerProduct.coerce(radius_sq) / lat.scale_sq
    bf = float(bound) * (1 + 1e-9)
    box = [int(math.floor(math.sqrt(bf * float(ginv[i][i])))) + 1 for i in range(r)]
    out = []
    for coords in itertools.product(*[range(-b, b + 1) for b in box]):
        q = Fraction(0)
        for i, a in enumerate(coords):
            if a:
                for j, b2 in enumerate(coords):
                    if b2:
                        q += a * b2 * g[i][j]
        if q == 0 or PowerProduct.coerce(q) <= bound:
            out.append(tuple(coords))
    out.sort()
    return out


class _EnumeratedBall(Ball):
    """A ball whose rank-k sum counts the enumerated hits."""

    def rank_k_sum(self, raw, lat, coords, hit, n, m, T):
        # the points were enumerated in the ball's own radius, so f(A/T) = 1 on each
        return raw + int(np.count_nonzero(hit))


def _lhs_enumerated(modules, n, k, T, f, RT):
    """(raw_sum, matrices_seen) over the modules, each by the base
    TestFunction.module_sum, which enumerates Lambda_D^n and ranks every
    matrix; a Ball, which the library counts from theta series, is counted
    by its hits."""
    if isinstance(f, Ball):
        f = _EnumeratedBall(f.radius)
    raw = seen = 0
    for P in modules:
        raw, tuples = f.module_sum(raw, P, n, k, T, RT)
        seen += tuples
    return raw, seen


def lhs_stratified_enumerated(field, n, m, k, T, f):
    """(raw_sum, matrices_seen) of the stratified count, every module by enumeration."""
    T = Fraction(T)
    RT = f.support_cover(T, m)
    return _lhs_enumerated(span_modules(okn_lattice(field, m), k, RT), n, k, T, f, RT)


def lhs_direct_enumerated(field, n, m, k, T, f):
    """(raw_sum, matrices_seen) of the direct count: every matrix of O_K^(nm)
    in the ball enumerated and ranked."""
    T = Fraction(T)
    RT = f.support_cover(T, m)
    return _lhs_enumerated(enumerate_primitive_modules(field, m, m, 1), n, k, T, f, RT)


def ball_tuples(lat, n, radius) -> int:
    """The number of n-tuples of vectors of lat whose squared norms sum to <= radius^2.

    The per-lattice reference for the theta tables of counting: one
    enumeration of lat gives its theta series up to the bound X of
    `_norm_bound`, in integer norms; n - 2 truncated products give the first
    n - 1 rows by their total norm, and the last row is read from the
    cumulative series.
    """
    X = _norm_bound(radius, lat.scale_sq, lat.gram_den)
    coords = short_vectors(lat, radius)
    norms, counts = np.unique(_int_norms(coords, lat.gram_int, 2 * X), return_counts=True)
    counts = counts.astype(kernels.int_dtype(len(coords) ** n))
    acc_norms, acc_counts = norms, counts
    for _ in range(n - 2):
        acc_norms, acc_counts = _truncated_product(acc_norms, acc_counts, norms, counts, X)
    # norms[0] = 0, so every remaining budget X - s >= 0 finds a norm
    last = np.searchsorted(norms, X - acc_norms, side="right") - 1
    return int((acc_counts * np.cumsum(counts)[last]).sum())


def _theta_Z_powers(top, X):
    """[r_1, ..., r_top]: r_j[h] is the number of vectors of Z^j of norm h <= X."""
    r1 = np.zeros(X + 1, dtype=np.int64)
    r1[np.arange(math.isqrt(X) + 1) ** 2] = 2
    r1[0] = 1
    reps = [r1]
    while len(reps) < top:
        r = reps[-1]
        shifted = np.zeros_like(r)
        for j in range(1, math.isqrt(X) + 1):
            shifted[j * j:] += r[:X + 1 - j * j]
        reps.append(r + 2 * shifted)
    return reps


def lhs_k1_oracle_Q(n, m, T, R=1):
    """(raw_sum, matrices_seen) of the rank-one ball count over Q, in NumPy alone.

    A rank-one Lambda_D is Z v for a primitive v of Z^m, up to sign, and its
    n-tuples of norm <= R T are the c v, c in Z^n with |c|^2 <= X / |v|^2,
    X = floor((R T)^2).  With r_j(h) the number of vectors of Z^j of norm h,
    r*_m(h) = sum_(c^2 | h) mu(c) r_m(h / c^2) counts the primitive ones and
    C_n(Y) = r_n(0) + ... + r_n(Y), so
    seen = 1/2 sum_h r*_m(h) C_n(floor(X / h)) and raw = seen less one zero
    tuple per module.
    """
    X = math.floor(Fraction(R) ** 2 * Fraction(T) ** 2)
    reps = _theta_Z_powers(max(m, n), X)
    r_m = reps[m - 1]
    mu = np.ones(math.isqrt(X) + 1, dtype=np.int64)
    for p in range(2, len(mu)):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
    prim = np.zeros(X + 1, dtype=np.int64)
    for c in range(1, len(mu)):
        if mu[c]:
            prim[::c * c] += mu[c] * r_m[:X // (c * c) + 1]
    prim[0] = 0
    cum_n = np.cumsum(reps[n - 1])
    h = np.arange(1, X + 1)
    modules = int(prim[1:].sum()) // 2
    seen = int((prim[1:] * cum_n[X // h]).sum()) // 2
    return seen - modules, seen


def moment_k1_oracle_Q(n, R, C) -> float:
    """per_k[1] of the moment limit over Q at m = 2 for a ball of radius R and
    height cutoff C (an integer), in NumPy alone.

    A rank-one Lambda_D is Z v for a primitive v of Z^2, up to sign, with
    H = |v|.  Column j of x v is x v_j, so the column product of the ball is
    the ball |x| <= R / ||v||_inf of R^n, and the term H^(-n) |v|^n V(n)
    R^n / ||v||_inf^n is V(n) R^n ||v||_inf^(-n).
    """
    x, y = (g.ravel() for g in np.meshgrid(np.arange(-C, C + 1), np.arange(-C, C + 1)))
    keep = (np.gcd(x, y) == 1) & (x * x + y * y <= C * C)
    sup = np.maximum(np.abs(x), np.abs(y))[keep].astype(float)
    vol = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return 0.5 * vol * float(R) ** n * float(np.sum(sup ** -float(n)))


def gram_loop(lat):
    """basis * form * basis^T by Fraction loops over the ambient form."""
    form = lat.ambient.form
    out = []
    for u in lat.basis:
        row = []
        for v in lat.basis:
            acc = Fraction(0)
            for i, a in enumerate(u):
                if a:
                    for j, b in enumerate(v):
                        if b:
                            acc += a * b * form[i][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


# -- reference loops for the vectorized kernels in latrank.kernels -------------


def fp_enumerate_loop(lmat, dvec, bound, last_lo, last_hi, out):
    """Depth-first Fincke-Pohst: fill `out` with all integer x, Q(x) <= bound.

    Q(x) = sum_i dvec[i] * (x[i] + c_i)^2 with c_i = sum_{j>i} x[j]*lmat[j,i]
    (lmat unit lower triangular from an LDL^T split of the Gram matrix).
    The outermost coordinate x[r-1] is restricted to [last_lo, last_hi].
    Children are visited by increasing coordinate.  Returns the count, or -1
    if `out` is too small.
    """
    r = dvec.shape[0]
    cap = out.shape[0]
    x = np.zeros(r, dtype=np.int64)
    center = np.zeros(r, dtype=np.float64)
    partial = np.zeros(r + 1, dtype=np.float64)
    hi = np.zeros(r, dtype=np.int64)
    count = 0
    i = r - 1

    # bounds at the top level
    rem = bound
    if rem < 0.0:
        return 0
    halfw = math.sqrt(rem / dvec[i])
    lo_i = int(math.ceil(-halfw))
    hi_i = int(math.floor(halfw))
    if lo_i < last_lo:
        lo_i = last_lo
    if hi_i > last_hi:
        hi_i = last_hi
    center[i] = 0.0
    hi[i] = hi_i
    x[i] = lo_i - 1

    while True:
        x[i] += 1
        if x[i] > hi[i]:
            i += 1
            if i >= r:
                return count
            continue
        t = x[i] + center[i]
        partial[i] = partial[i + 1] + dvec[i] * t * t
        if partial[i] > bound:
            continue
        if i == 0:
            if count >= cap:
                return -1
            for j in range(r):
                out[count, j] = x[j]
            count += 1
            continue
        i -= 1
        c = 0.0
        for j in range(i + 1, r):
            c += x[j] * lmat[j, i]
        center[i] = c
        rem = bound - partial[i + 1]
        if rem < 0.0:
            rem = 0.0
        halfw = math.sqrt(rem / dvec[i])
        x[i] = int(math.ceil(-c - halfw)) - 1
        hi[i] = int(math.floor(-c + halfw))


def ranks_int_loop(batch, out):
    """Exact ranks of a batch of small integer matrices, one matrix at a time
    (fraction-free Bareiss elimination).  Caller guarantees int64 safety."""
    nmat, nrow, ncol = batch.shape
    work = np.zeros((nrow, ncol), dtype=np.int64)
    for t in range(nmat):
        work[:, :] = batch[t]
        rank = 0
        prev = np.int64(1)
        for col in range(ncol):
            piv = -1
            for i in range(rank, nrow):
                if work[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != rank:
                for j in range(ncol):
                    tmp = work[rank, j]
                    work[rank, j] = work[piv, j]
                    work[piv, j] = tmp
            pval = work[rank, col]
            for i in range(rank + 1, nrow):
                ival = work[i, col]
                for j in range(ncol):
                    work[i, j] = (pval * work[i, j] - ival * work[rank, j]) // prev
            prev = pval
            rank += 1
            if rank == nrow:
                break
        out[t] = rank
    return out


def ranks_mod_p_loop(batch, p, out):
    """Ranks of a batch of integer matrices reduced mod a prime p, one matrix
    at a time, with Fermat pivot inverses."""
    nmat, nrow, ncol = batch.shape
    work = np.zeros((nrow, ncol), dtype=np.int64)
    for t in range(nmat):
        work[:, :] = batch[t] % p
        rank = 0
        for col in range(ncol):
            piv = -1
            for i in range(rank, nrow):
                if work[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != rank:
                for j in range(ncol):
                    tmp = work[rank, j]
                    work[rank, j] = work[piv, j]
                    work[piv, j] = tmp
            inv = np.int64(1)
            base = work[rank, col] % p
            e = p - 2
            while e > 0:
                if e & 1:
                    inv = (inv * base) % p
                base = (base * base) % p
                e >>= 1
            for i in range(rank + 1, nrow):
                f = (work[i, col] * inv) % p
                if f != 0:
                    for j in range(ncol):
                        work[i, j] = (work[i, j] - f * work[rank, j]) % p
            rank += 1
            if rank == nrow:
                break
        out[t] = rank
    return out


def eliminate_reference(batch: np.ndarray, combine, jordan: bool):
    """Row elimination on every matrix of an (N, n, m) int64 or object batch at once,
    with physical row swaps; the reference for kernels._eliminate.

    Column by column, each matrix takes as pivot its first row at or below
    its current rank with a nonzero entry in the column (a masked argmax),
    swaps it up to row `rank`, and `combine(rows, pivot_row, pivot_value,
    row_entries, previous_pivot)` replaces every row below it, or with
    `jordan` every other row; the pivot row, and every row of a matrix
    without a pivot, keep their values.  Returns (rows, rank, prev), prev[i]
    the last pivot value of matrix i (1 for a zero matrix).
    """
    nmat, nrow, ncol = batch.shape
    work = batch.copy()
    rank = np.zeros(nmat, dtype=np.int64)
    prev = np.ones(nmat, dtype=batch.dtype)
    idx, rows = np.arange(nmat), np.arange(nrow)
    for col in range(ncol if nrow else 0):
        cand = (work[:, :, col] != 0) & (rows[None, :] >= rank[:, None])
        piv = cand.argmax(axis=1)
        has = cand[idx, piv]
        if not has.any():
            continue
        at = np.minimum(rank, nrow - 1)
        piv = np.where(has, piv, at)
        pivot_row = work[idx, piv]
        work[idx, piv] = work[idx, at]
        work[idx, at] = pivot_row
        pval = pivot_row[:, col]
        new = combine(work, pivot_row[:, None, :], pval[:, None, None],
                      work[:, :, col, None], prev[:, None, None])
        others = (np.not_equal if jordan else np.greater)(rows[None, :], rank[:, None])
        work = np.where((has[:, None] & others)[:, :, None], new, work)
        prev = np.where(has, pval, prev)
        rank += has
    return work, rank, prev


# -- reference loop for the integral LLL in latrank.zlattice ---------------------


def lll_transform_loop(gram, delta: Fraction):
    """Unimodular U with U G U^T Lovasz-reduced; exact rational arithmetic.

    The Gram-Schmidt data are recomputed from scratch after every size
    reduction and swap.  Rows are size-reduced against j = k-1 .. 0 with
    r = floor(mu + 1/2) before the Lovasz test at delta.
    """
    n = len(gram)
    U = intmat.identity(n)

    def inner(i, j):
        return sum(Fraction(U[i][a]) * gram[a][b] * U[j][b]
                   for a in range(n) for b in range(n))

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bstar[i] = inner(i, i)
            for j in range(i):
                mu[i][j] = (inner(i, j)
                            - sum(mu[i][t] * mu[j][t] * bstar[t] for t in range(j))) / bstar[j]
                bstar[i] -= mu[i][j] ** 2 * bstar[j]
        return mu, bstar

    mu, bstar = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = math.floor(q + Fraction(1, 2))
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                mu, bstar = gso()
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            mu, bstar = gso()
            k = max(k - 1, 1)
    return U


# -- reference normal forms: a Hermite loop with its transform, and Smith for the module data --


def hermite_loop(M):
    """intmat.hermite_normal_form by min-abs row swaps, with its transform.

    Returns (H, U) with U * M = H, det(U) = +-1, pivots positive, entries above
    each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = intmat.identity(rows)
    r = 0
    for c in range(cols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r + 1, rows) if A[i][c] != 0]
            if A[r][c] == 0:
                if not nz:
                    break
                i = nz[0]
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
                continue
            if not nz:
                break
            i = min(nz, key=lambda t: abs(A[t][c]))
            if abs(A[i][c]) < abs(A[r][c]):
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
                continue
            q = A[i][c] // A[r][c]
            A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        if A[r][c] == 0:
            continue
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        piv = A[r][c]
        for i in range(r):
            q = A[i][c] // piv
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
        if r == rows:
            break
    return A, U


def rref_loop(A):
    """Reduced row echelon form over the rationals by Gauss-Jordan on Fractions,
    the reference of intmat.rref and kernels.gauss_jordan.

    Returns (R, pivot_cols, rank).
    """
    if not A:
        return [], [], 0
    M = [[Fraction(x) for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots, r


def det_loop(A) -> Fraction:
    """Determinant by Gaussian elimination on Fractions with row swaps, the
    reference of intmat.det."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        pivot = M[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if M[r][col] != 0:
                factor = M[r][col] / pivot
                for c in range(col, n):
                    M[r][c] -= factor * M[col][c]
    return sign * result


def max_minor_gcd(rows) -> int:
    """gcd of the r x r minors of an integer matrix of rank r >= 1.

    It depends only on the Z-span of the rows; for a basis it is the index of
    that span in its saturation, so it is 1 iff the span is saturated.
    """
    r = rref_loop(rows)[2]
    return math.gcd(*(int(intmat.det([[rows[i][j] for j in cols] for i in sub]))
                      for sub in itertools.combinations(range(len(rows)), r)
                      for cols in itertools.combinations(range(len(rows[0])), r)))


def smith_normal_form(M):
    """Smith normal form with transforms, the reference of lambda_of_loop and
    denominator_loop.

    Returns (divisors, U, V) with U * M * V diagonal on `divisors`,
    d_1 | d_2 | ... and d_i >= 0; U, V unimodular.  Only the pivot row and
    column are reduced, so entries can grow without bound (a 4 x 6 matrix
    with entries below 500 can run for minutes): keep its inputs small.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = intmat.identity(rows)
    V = intmat.identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        # find a nonzero pivot
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        d = A[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return [A[i][i] for i in range(n)], U, V


# -- reference loops for the module data in latrank.modules and latrank.exactval --


def _w_blocks(field, m: int):
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


@dataclass
class ModuleRef:
    """The module data of lambda_of_loop, under the attribute names of
    latrank.modules.PrimitiveModule, all computed up front."""

    echelon: object
    lattice: object
    height: float
    height_sq: PowerProduct
    denominator: int

    def key(self):
        return self.echelon.key()


def lambda_of_loop(D, ambient=None):
    """Lambda_D through FieldElement products, Fraction matrix products, the
    Fraction inverse of the Smith transform V and a validated ZLattice."""
    from latrank.numfield import flatten_kvector
    from latrank.zlattice import Ambient, ZLattice

    field = D.field
    m = D.m
    ambient = ambient or Ambient.for_field(field, m)
    span_rows = [flatten_kvector(field, r) for r in field.ok_z_basis(D.rows)]
    W, Winv = _w_blocks(field, m)
    A_int = intmat._integral(intmat.mat_mul(span_rows, Winv))[1]
    divisors, _, V = smith_normal_form(A_int)
    r = sum(1 for dv in divisors if dv != 0)
    Vinv = intmat.inverse(V)
    assert all(x.denominator == 1 for row in Vinv for x in row)
    sat = [[int(x) for x in Vinv[i]] for i in range(r)]
    basis = intmat.mat_mul(sat, W)
    lat = ZLattice(basis, ambient)
    hsq = lat.height_sq()
    return ModuleRef(echelon=D, lattice=lat, height=math.sqrt(float(hsq)),
                     height_sq=hsq, denominator=denominator_loop(D))


def echelon_rref(field, phi_rows):
    """modules._echelon by a rational RREF: the echelon form of a K-stable row space.

    phi_rows are rational rows, in power coordinates, that span a K-stable
    subspace of K^m over Q, each row scaled by any nonzero rational.  Their
    rational RREF is Phi of the RREF over K, so rows 0, d, 2d, ... of it are
    the K-rows and every d-th pivot, over d, is a K-pivot.
    """
    from latrank.modules import EchelonMatrix
    from latrank.numfield import unflatten_kvector

    d = field.degree
    R, pivots, rk = rref_loop(phi_rows)
    return EchelonMatrix(field=field,
                         rows=tuple(unflatten_kvector(field, R[i]) for i in range(0, rk, d)),
                         pivot_cols=tuple(p // d for p in pivots[::d]))


def span_modules_loop(okm, k, radius, prod_bound=math.inf):
    """modules.span_modules with one rational RREF (echelon_rref) per k-tuple
    of candidates, at every k, and one lambda_of per new echelon key."""
    from latrank.modules import _candidates, lambda_of
    from latrank.zlattice import short_vectors

    field = okm.ambient.field
    d = field.degree
    norms, phi = _candidates(okm, short_vectors(okm, radius))
    norms, rows = norms.tolist(), phi.tolist()
    found = {}
    for combo in itertools.combinations(range(len(rows)), k):
        if math.prod(norms[i] ** (d / 2.0) for i in combo) > prod_bound:
            continue
        D = echelon_rref(field, [row for i in combo for row in rows[i]])
        if D.k < k or D.key() in found:
            continue
        found[D.key()] = lambda_of(D, okm.ambient)
        if k * d == okm.rank:
            break
    return sorted(found.values(), key=lambda P: (P.height, P.key()))


class ModuleObject:
    """One module of the per-object path: the integer data of one echelon key
    from the module data pass, H^2 a PowerProduct from zlattice._height_sq
    and H the square root of its float, as each PrimitiveModule held them
    before module sets; ordered by PrimitiveModule._order."""

    def __init__(self, P):
        from latrank.zlattice import _height_sq, _scale_power

        self.field, self.k, self.m = P.field, P.k, P.m
        self.echelon, self.denominator, self._key = P.echelon, P.denominator, P._key
        r = P.k * P.field.degree
        self.height_sq = _height_sq(_scale_power(P._ambient.scale_sq, r), r, P._gram[2],
                                    P.gram_den)
        self.height = math.sqrt(float(self.height_sq))

    def key(self):
        return self.echelon.key()


def modules_reference(field, k, m, height_bound):
    """modules.enumerate_primitive_modules by the per-object path: the keys of
    its search, one ModuleObject per key, sorted by PrimitiveModule._order
    and cut by PowerProduct comparison."""
    from latrank.modules import PrimitiveModule, _minkowski_constant
    from latrank.zlattice import shortest_nonzero_sqnorm

    bound = Fraction(height_bound)
    if k == m:
        found = enumerate_primitive_modules(field, m, m, bound)
    else:
        # the search radii of enumerate_primitive_modules
        okm = okn_lattice(field, m)
        d = field.degree
        nu = math.sqrt(float(shortest_nonzero_sqnorm(okm)))
        c6 = _minkowski_constant(k * d)
        per_vec = (c6 * float(bound) / nu ** (d * (k - 1))) ** (1.0 / d)
        found = span_modules(okm, k, per_vec * (1 + 1e-9),
                             prod_bound=c6 * float(bound) * (1 + 1e-6))
    bound_sq = PowerProduct.coerce(bound ** 2)
    return [P for P in sorted(map(ModuleObject, found), key=PrimitiveModule._order)
            if k == m or P.height_sq <= bound_sq]


def denominator_loop(D) -> int:
    """Den(D) from a second Smith form, of the rows theta^a * D_i mapped through
    the integral-basis blocks: B = Wk * t_rows * Wm^-1."""
    from latrank.numfield import flatten_kvector

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
    q, C = intmat._integral(intmat.mat_mul(intmat.mat_mul(Wk, t_rows), Wm_inv))
    divisors, _, _ = smith_normal_form(C)
    idx = 1
    for dv in divisors:
        if dv == 0:
            raise ValueError("echelon matrix is not of full rank")
        idx *= q // math.gcd(dv, q)
    return idx


def pp_pow_loop(x: PowerProduct, e) -> PowerProduct:
    """x ** e with the numerator and denominator of the coefficient passed as
    bases, so both are factored by trial division."""
    e = Fraction(e)
    cnum, cden = x.coeff.numerator, x.coeff.denominator
    return PowerProduct(1, ((cnum, e), (cden, -e)) + tuple((p, pe * e) for p, pe in x.exps))


def pp_le_loop(x: PowerProduct, y: PowerProduct) -> bool:
    """x <= y by raising the ratio to the lcm of its exponent denominators, with
    every power taken by pp_pow_loop."""
    ratio = x * pp_pow_loop(y, -1)
    lcm = 1
    for _, e in ratio.exps:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    return pp_pow_loop(ratio, lcm).as_fraction() <= 1


def similarity_radius_sq_loop(P, radii):
    """counting._similarity_radius_sq with each column Gram S_j G_jj S_j^T
    formed by two intmat.mat_mul calls on the module's own Hermite rows."""
    from latrank.modules import _okm_form

    d, r = P.field.degree, len(P._hermite)
    G = _okm_form(P._ambient)[0]
    col_grams = []
    for j in range(P.m):
        blk = slice(j * d, (j + 1) * d)
        S_j = [row[blk] for row in P._hermite]
        col_grams.append(intmat.mat_mul(intmat.mat_mul(S_j, G[blk, blk].tolist()),
                                        intmat.transpose(S_j)))
    full = [[sum(g[a][b] for g in col_grams) for b in range(r)] for a in range(r)]
    ratios = []
    for g, rad in zip(col_grams, radii):
        if any(x * full[0][0] != g[0][0] * y for g_row, f_row in zip(g, full)
               for x, y in zip(g_row, f_row)):
            return None
        if g[0][0]:
            ratios.append(rad ** 2 * Fraction(full[0][0], g[0][0]))
    return min(ratios)


def term_value_detail_loop(P, n, f, mc_samples, seed=None):
    """Reference Monte Carlo term: the embedded samples pts @ q.T in full.

    Draws the same samples from the same stream as the estimator
    `counting._mc_term` and decides every product-of-balls sample
    with the reference expression.  Returns (value, stderr).
    """
    lat = P.lattice
    kd = lat.rank
    hn = float(P.height_sq) ** (-n / 2.0)
    m = P.echelon.m
    d = P.echelon.field.degree
    basis_emb = np.array([lat.ambient.embed(row) for row in lat.basis])
    q, _ = np.linalg.qr(basis_emb.T)
    fro = f.support_radius
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-fro, fro, size=(mc_samples, n, kd))
    emb = pts @ q.T
    radii = np.array([float(r) for r in f.column_radii(m)])
    colsq = np.zeros((mc_samples, m))
    for j in range(m):
        block = emb[:, :, j * d:(j + 1) * d]
        colsq[:, j] = np.einsum("nij,nij->n", block, block)
    vals = np.all(colsq <= radii[None, :] ** 2, axis=1).astype(float)
    volume = (2.0 * fro) ** (n * kd)
    std = float(vals.std(ddof=1)) if mc_samples > 1 else 0.0
    return (hn * volume * float(vals.mean()),
            hn * volume * std / math.sqrt(mc_samples))


# -- Hecke neighbors one at a time: the reference for latrank.hecke's moments -------


def neighbor_sum_loop(hl, g, include_zero=True):
    """Sum of g over one neighbor lattice, enumerated on its own basis."""
    lat = hl.lattice
    coords = short_vectors(lat, g.support_cover(hl.t_scale_sq.sqrt(), 1))
    if isinstance(g, Ball):
        return len(coords) if include_zero else len(coords) - 1
    total = 0.0
    inv_t = 1.0 / hl.t_scale
    for c in coords.tolist():
        if not include_zero and not any(c):
            continue
        emb = lat.ambient.embed(lat.to_ambient(c))
        total += float(g.evaluator(emb * inv_t))
    return total


def enumerate_subspaces_loop(s, n, q):
    """Echelon rows of every s-dim subspace of F_q^n, one itertools fill at a time."""
    out = []
    for pivots in itertools.combinations(range(n), s):
        pivset = set(pivots)
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                if j not in pivset]
        for fill in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(s)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, fill):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


def moment_lhs_loop(field, P, n, s, m, g, mode="exact", sample_count=0, seed=None,
                    include_zero=True):
    """`hecke.moment_lhs` by building every neighbor with `hecke_neighbor`."""
    okn = okn_lattice(field, n)
    if mode == "exact":
        subs = enumerate_subspaces(s, n, P.p)
        total = 0
        for S in subs:
            hl = hecke_neighbor(field, P, S, base=okn)
            total += neighbor_sum_loop(hl, g, include_zero) ** m
        if isinstance(total, int):
            return Fraction(total, len(subs))
        return total / len(subs)
    rng = np.random.default_rng(seed)
    vals = np.zeros(sample_count)
    for i in range(sample_count):
        hl = hecke_neighbor(field, P, sample_subspace(s, n, P.p, rng), base=okn)
        vals[i] = neighbor_sum_loop(hl, g, include_zero) ** m
    stderr = float(vals.std(ddof=1) / math.sqrt(sample_count)) if sample_count > 1 else 0.0
    return float(vals.mean()), stderr



def moment_stratified_reference(field, P, n, s, m, g):
    """`hecke.moment_stratified` by ranking every m-tuple of the reduced columns.

    The tuples come in itertools.product order, in pieces of kernels._BLOCK
    tuples, each ranked by kernels.ranks_mod_p; the time grows like |C|^m.
    """
    p = P.p
    cols = g.points_inside(okn_lattice(field, n), hecke._t_scale_sq(p, n, s, field.degree).sqrt())
    red = hecke._residues(field, P, cols)                          # (|C|, n)
    probs = [hecke.containment_probability(k, s, n, p) for k in range(min(n, m) + 1)]
    shape, total = (len(cols),) * m, len(cols) ** m
    counts = np.zeros(len(probs), dtype=np.int64)
    for start in range(0, total, kernels._BLOCK):
        combos = np.unravel_index(np.arange(start, min(start + kernels._BLOCK, total)), shape)
        batch = np.stack([red[c] for c in combos], axis=2)     # (block, n, m)
        counts += np.bincount(kernels.ranks_mod_p(batch, p), minlength=len(probs))
    return sum((int(c) * probs[k] for k, c in enumerate(counts)), Fraction(0))

# -- matrices over K: the FieldElement reference for latrank.modules._echelon ------


def _inverse_loop(x):
    """x^-1 in K: the y with y M(x) = e_0, solved by rref_loop."""
    d = x.field.degree
    cols = list(zip(*x.field.mult_matrix(x)))
    R = rref_loop([list(col) + [int(j == 0)] for j, col in enumerate(cols)])[0]
    return x.field.element([R[i][d] for i in range(d)])


def k_rref(A):
    """Reduced row echelon form over K by Gauss-Jordan on FieldElement entries,
    each pivot inverted through rref_loop.

    Returns (R, pivot_cols, rank).
    """
    M = [list(row) for row in A]
    if not M:
        return [], [], 0
    rows, cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not M[i][c].is_zero()), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = _inverse_loop(M[r][c])
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and not M[i][c].is_zero():
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots, r


def kmat_mul(A, B):
    """Product of two matrices of FieldElements."""
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = A[i][0] * B[0][j]
            for t in range(1, inner):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def from_integral_coords(field, coords):
    """The element sum_j coords[j] u_j of K, u the integral basis."""
    d = field.degree
    out = [Fraction(0)] * d
    for c, row in zip(coords, field.integral_basis):
        if c:
            for i in range(d):
                out[i] += Fraction(c) * row[i]
    return field.element(out)


def is_integral(field, x) -> bool:
    """Whether x lies in O_K."""
    try:
        field.integral_coords(x)
        return True
    except NotIntegralError:
        return False


# -- module helpers that only tests use ------------------------------------------


def pivot_product_integral(P, n: int, f) -> float:
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


def matrices_with_rows(n: int, P, radius):
    """All elements of M_n(Lambda_D) with Frobenius twisted norm <= radius, as K-matrices."""
    stacked = direct_sum(P.lattice, n)
    coords = short_vectors(stacked, radius).tolist()
    r = P.lattice.rank
    out = []
    for c in coords:
        rows = [P.lattice.kvector_of_coords(c[t * r:(t + 1) * r]) for t in range(n)]
        out.append(rows)
    return out


def matrix_module_index(D, n: int) -> int:
    """[M_{n x k}(O_K) D : M_n(Lambda_D)] = |det X|^n, exact.

    X holds the coordinates of Lambda_D in the Z-basis of the O_K-span of
    D's rows; it is square and nonsingular, as both have Z-rank kd.
    """
    X = sublattice_coords(lambda_of(D).lattice, from_ok_rows(D.field, D.rows))
    return int(abs(intmat.det(X))) ** n


def jacobian_sq(D) -> Fraction:
    """Squared volume scaling of x -> x D on M_{1 x k}(K_R), exact rational."""
    # the image of O_K^k is the O_K-span of D's rows
    return from_ok_rows(D.field, D.rows).det_gram() / okn_lattice(D.field, D.k).det_gram()


def jacobian(D) -> float:
    return math.sqrt(float(jacobian_sq(D)))

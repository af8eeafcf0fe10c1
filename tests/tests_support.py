"""Shared test oracles, independent of the library's enumeration path."""

import itertools
import math
from fractions import Fraction

import numpy as np

from latrank import intmat
from latrank.counting import Ball
from latrank.errors import NotIntegralError
from latrank.exactval import PowerProduct
from latrank.hecke import enumerate_subspaces, hecke_neighbor, sample_subspace
from latrank.zlattice import okn_lattice, short_vectors


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


def lambda_of_loop(D, ambient=None):
    """Lambda_D through FieldElement products, Fraction matrix products, the
    Fraction inverse of the Smith transform V and a validated ZLattice."""
    from latrank.modules import PrimitiveModule
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
    lat = ZLattice(basis, ambient, ok_module=True)
    hsq = lat.height_sq()
    return PrimitiveModule(echelon=D, lattice=lat, height=math.sqrt(float(hsq)),
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


def term_value_detail_loop(P, n, f, mc_samples, seed=None):
    """Reference Monte Carlo term: the embedded samples pts @ q.T in full.

    Draws the same samples from the same stream as
    `counting.term_value_detail` and decides every product-of-balls sample
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

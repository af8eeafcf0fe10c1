"""Shared test oracles, independent of the library's enumeration path."""

import itertools
import math
from fractions import Fraction

import numpy as np

from latrank import intmat
from latrank.exactval import PowerProduct


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

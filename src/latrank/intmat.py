"""Exact matrix routines over the integers and rationals.

Matrices are lists of lists of Python ints or Fractions; everything here is
arbitrary precision.  The one elimination over Q is kernels._eliminate, on
the matrix scaled to integers by _integral: rref runs its Gauss-Jordan
(kernels.gauss_jordan), rank, solve and inverse read rref, and det reads
the last pivot of its forward pass.  The one integer normal form is the
Hermite form, one batched column-by-column elimination (_hermite);
hermite_normal_form runs it on one matrix and gives neighbor bases, and
saturation_basis runs it modulo q on a batch and gives every saturation and
index, from the fraction-free RREF of a row space.  leading_minors is the
one Bareiss recurrence on symmetric matrices, for a batch.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import kernels


def _integral(rows):
    """(den, den * rows) for a matrix of ints and Fractions, den the lcm of its
    denominators; it reads .numerator and .denominator and builds no Fraction."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        Ai = A[i]
        row = [sum(Ai[t] * B[t][j] for t in range(inner)) for j in range(cols)]
        out.append(row)
    return out


def vec_mat(v, A):
    cols = len(A[0])
    return [sum(v[i] * A[i][j] for i in range(len(v))) for j in range(cols)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def det(A) -> Fraction:
    """Determinant over the rationals, from one forward Bareiss pass.

    kernels._eliminate on A scaled to integers (den A, of determinant
    den^n det A) leaves that determinant, up to the sign of the row
    permutation that its places record, as the last pivot value.
    """
    n = len(A)
    if not n:
        return Fraction(1)
    den, M = _integral(A)
    work = np.array(M, dtype=object).reshape(n, n, 1)
    pos, rank, prev = kernels._eliminate(work, kernels._bareiss_step, False)
    if rank[0] < n:
        return Fraction(0)
    places = pos[:, 0].tolist()
    swaps = sum(a > b for i, a in enumerate(places) for b in places[i + 1:])
    return Fraction(-int(prev[0]) if swaps % 2 else int(prev[0]), den ** n)


def leading_minors(G):
    """Fraction-free (Bareiss) elimination of a batch of symmetric integer matrices, no pivoting.

    G is a (B, n, n) int64 or object array, read in its lower triangle; the
    caller picks the dtype, under kernels.bareiss_bound of its entries.
    Returns (d, lam), arrays of G's dtype: d[:, k] is the k-th leading
    principal minor (d[:, 0] = 1), and for j < i, lam[:, i, j] = det
    G[{0..j-1, i}, {0..j}], the entry the elimination leaves below the j-th
    pivot (d[j+1] * mu_ij of the Gram-Schmidt data when G is a Gram matrix).
    Every division is exact.  The elimination of a matrix stops at its first
    minor that is not positive: d is 0 past it and lam is not defined there,
    so G[i] is positive definite iff min(d[i]) > 0.
    """
    M = np.array(G)
    B, n = M.shape[:2]
    d = np.zeros((B, n + 1), dtype=M.dtype)
    d[:, 0] = 1
    live = np.ones(B, dtype=bool)
    prev = d[:, 0]
    for t in range(n):
        p = M[:, t, t]
        d[:, t + 1] = p * live
        live &= p > 0
        if not live.any():
            break
        # the symmetric Bareiss step on the trailing block; its lower
        # triangle reads only the lower triangle of G
        col = M[:, t + 1:, t]
        step = (p[:, None, None] * M[:, t + 1:, t + 1:] - col[:, :, None] * col[:, None, :]) \
            // prev[:, None, None]
        np.copyto(M[:, t + 1:, t + 1:], step, where=live[:, None, None])
        prev = np.where(live, p, 1)
    return d, M


def rref(A):
    """Reduced row echelon form over the rationals.

    Returns (R, pivot_cols, rank).  One kernels.gauss_jordan pass on A scaled
    to integers gives den times the RREF, with den its last pivot value.
    """
    if not A:
        return [], [], 0
    batch = np.array(_integral(A)[1], dtype=object)[None]
    R, rank, pivots, den = (x[0] for x in kernels.gauss_jordan(batch))
    return [[Fraction(x, int(den)) for x in row] for row in R.tolist()], \
        pivots[:rank].tolist(), int(rank)


def rank(A) -> int:
    return rref(A)[2]


def solve(A, b):
    """Solve A x = b exactly; A square nonsingular."""
    n = len(A)
    R, pivots, rk = rref([list(row) + [v] for row, v in zip(A, b)])
    if rk < n or pivots != list(range(n)):
        raise ValueError("singular system")
    return [R[i][n] for i in range(n)]


def inverse(A):
    n = len(A)
    R, pivots, rk = rref([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(A)])
    if rk < n or pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in R]


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0, elementwise on two arrays.

    The extended Euclidean algorithm, one step on every pair still running
    at once; |s| <= max(|b|, 1) and |t| <= max(|a|, 1), and every value it
    forms is at most 2 max(|a|, |b|) in absolute value.
    """
    one, zero = np.ones_like(a), np.zeros_like(a)
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while (run := r1 != 0).any():
        quo = r0 // np.where(run, r1, 1)
        r0, r1 = np.where(run, r1, r0), np.where(run, r0 - quo * r1, r1)
        s0, s1 = np.where(run, s1, s0), np.where(run, s0 - quo * s1, s1)
        t0, t1 = np.where(run, t1, t0), np.where(run, t0 - quo * t1, t1)
    sign = np.where(r0 < 0, -1, 1)
    return r0 * sign, s0 * sign, t0 * sign


def _hermite(W: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Row Hermite forms of the lattices spanned by the rows of W[i] and q[i] Z^n.

    W is a (B, g, n) int64 or object batch, overwritten; q is None for the
    rows alone, or a (B,) array of positive moduli.  Returns P (B, n, n): row
    c of P[i] is the Hermite basis row whose pivot is in column c, and is 0
    where column c has no pivot, so the nonzero rows of P[i] are the Hermite
    form.  Column by column, an accumulator that starts as q e_c (0 without
    q) takes each row in turn: one extended gcd of the two column-c entries
    gives the unimodular [[s, t], [-b/g, a/g]] that leaves the gcd g >= 0 in
    the accumulator and 0 in the row, for the whole batch at once.  The
    accumulator is the pivot row; the rows above it are reduced into
    [0, pivot) in column c.  With q, the lattice contains q Z^n, so every
    entry right of the column is kept in [0, q) (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.2): each value formed is then
    below 4 q^2 in absolute value.
    """
    B, nrow, n = W.shape
    P = np.zeros((B, n, n), dtype=W.dtype)
    for c in range(n):
        top = np.zeros((B, n), dtype=W.dtype)
        if q is not None:
            top[:, c] = q
        for i in range(nrow):
            row = W[:, i]
            sel = np.flatnonzero(row[:, c])
            if not len(sel):
                continue
            x, y = top[sel], row[sel]
            a, b = x[:, c], y[:, c]
            g, s, t = _xgcd(a, b)
            x, y = s[:, None] * x + t[:, None] * y, (a // g)[:, None] * y - (b // g)[:, None] * x
            if q is not None:
                x[:, c + 1:] %= q[sel, None]
                y[:, c + 1:] %= q[sel, None]
            top[sel], row[sel] = x, y
        pivot = top[:, c]
        # no pivot leaves top 0, so the reduction subtracts nothing
        f = P[:, :c, c] // np.where(pivot > 0, pivot, 1)[:, None]
        P[:, :c] -= f[:, :, None] * top[:, None, :]
        if q is not None:
            P[:, :c, c + 1:] %= q[:, None, None]
        P[:, c] = top
    return P


def hermite_normal_form(M):
    """Row-style Hermite normal form H of an integer matrix M, of any shape and rank.

    H spans the same lattice as the rows of M.  Its pivots move strictly
    right and are positive, the entries above each pivot lie in [0, pivot),
    and zero rows sink to the bottom, so H is canonical.  It is the
    one-matrix batch of _hermite, in Python ints.
    """
    H = [list(map(int, row)) for row in M]
    if not H or not H[0]:
        return H
    width = len(H[0])
    P = _hermite(np.array(H, dtype=object).reshape(1, len(H), width))[0]
    basis = [row for row in P.tolist() if any(row)]
    return basis + [[0] * width for _ in range(len(H) - len(basis))]


def saturation_basis(qs, A):
    """(S, den) of a batch: S[i] the Hermite basis of (row space of A[i]) intersect
    Z^n, and den[i] its index.

    qs is (B,) and A is (B, r, n), integers.  A[i] / qs[i] is a rational
    matrix of rank r in reduced row echelon form, with A[i] its integer
    numerator, so A = q I on the pivot columns.  A row y A / q with y
    rational is integral iff y is integral (y is its pivot part) and
    y A_N = 0 mod q on the other s = n - r columns N.  So the saturation is
    L A / q with L = {y in Z^r : y A_N = 0 mod q}, and den = [Z^r : L] is its
    index in Z^r A / q.  The Hermite form of [[A_N, I_r], [q I_s, 0]] ends in
    the Hermite basis of L, its vectors with no A_N part; L is upper
    triangular and A / q is the identity on its pivots, so L A / q is again
    a Hermite basis, and den is the product of L's diagonal.  That lattice
    contains q Z^(s + r), so one modular _hermite pass on the rows
    [A_N mod q, I_r] gives it for the whole batch: every key keeps all s
    columns of A_N, also those that are 0 mod q, so all keys have one shape,
    and int_dtype picks the dtype from the pass's bound 4 q^2.

    Returns S as a (B, r, n) array, in the dtype int_dtype picks for L A,
    and den as a (B,) object array of Python ints.
    """
    A = np.asarray(A)
    qs = np.asarray(qs)
    B, r, n = A.shape
    s = n - r
    max_q = int(qs.max()) if B else 1
    dtype = kernels.int_dtype(4 * max_q * max_q)
    is_pivot = np.zeros((B, n), dtype=bool)
    np.put_along_axis(is_pivot, np.argmax(A != 0, axis=2), True, axis=1)   # first nonzeros
    rest = np.argsort(is_pivot, axis=1, kind="stable")[:, :s]
    q = qs.astype(dtype)
    W = np.concatenate([np.take_along_axis(A, rest[:, None, :], axis=2) % qs[:, None, None],
                        np.broadcast_to(np.eye(r, dtype=np.int64), (B, r, r)) % qs[:, None, None]],
                       axis=2).astype(dtype)
    L = _hermite(W, q)[:, s:, s:]
    den = np.prod(np.diagonal(L, axis1=1, axis2=2).astype(object), axis=1)
    max_a = int(np.max(np.abs(A))) if A.size else 0
    dtype = kernels.int_dtype(r * max_q * max_a)
    return (L.astype(dtype) @ A.astype(dtype)) // qs.astype(dtype)[:, None, None], den

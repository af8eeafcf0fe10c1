"""Exact matrix routines over the integers and rationals.

Matrices are lists of lists of Python ints or Fractions; everything here is
arbitrary precision.  Hermite and Smith normal forms carry their unimodular
transforms so callers can compute indices and saturations exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
    """Determinant by exact Gaussian elimination with pivoting."""
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


def leading_minors(G):
    """Fraction-free (Bareiss) elimination of a symmetric integer matrix, no pivoting.

    Returns (d, lam): d[k] is the k-th leading principal minor (d[0] = 1), and
    for j < i, lam[i][j] = det G[{0..j-1, i}, {0..j}], the entry the elimination
    leaves below the j-th pivot (d[j+1] * mu_ij of the Gram-Schmidt data when G
    is a Gram matrix).  Every division is exact.  The pass stops at the first
    minor that is not positive, so G is positive definite iff min(d) > 0.
    """
    n = len(G)
    M = [[int(x) for x in row[:i + 1]] for i, row in enumerate(G)]  # lower triangle
    d = [1]
    for t in range(n):
        p = M[t][t]
        d.append(p)
        if p <= 0:
            break
        prev = d[t]
        for i in range(t + 1, n):
            Mi, a = M[i], M[i][t]
            for j in range(t + 1, i + 1):
                Mi[j] = (p * Mi[j] - a * M[j][t]) // prev
    lam = [row[:i] for i, row in enumerate(M)]
    return d, lam


def rref(A):
    """Reduced row echelon form over the rationals.

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


def rank(A) -> int:
    return rref(A)[2]


def solve(A, b):
    """Solve A x = b exactly; A square nonsingular."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    R, pivots, rk = rref(M)
    if rk < n or pivots != list(range(n)):
        raise ValueError("singular system")
    return [R[i][n] for i in range(n)]


def inverse(A):
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    R, pivots, rk = rref(M)
    if rk < n or pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in R]


def hermite_normal_form(M):
    """Row-style Hermite normal form with transform.

    Returns (H, U) with U * M = H, det(U) = +-1, pivots positive, entries above
    each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = identity(rows)
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


def smith_normal_form(M, with_inverse: bool = False):
    """Smith normal form with transforms.

    Returns (divisors, U, V) with U * M * V diagonal on `divisors`,
    d_1 | d_2 | ... and d_i >= 0; U, V unimodular.  With `with_inverse`,
    V^-1 follows as a fourth entry: every column operation on V is applied
    to V^-1 as the inverse row operation, so it stays integral and exact
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.4.14).
    """
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = identity(rows)
    V = identity(cols)
    Vinv = identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(src, dst, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        # V (I + q e_src e_dst^T) has inverse (I - q e_src e_dst^T) V^-1
        Vinv[src] = [a - q * b for a, b in zip(Vinv[src], Vinv[dst])]

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
    divisors = [A[i][i] for i in range(n)]
    if with_inverse:
        return divisors, U, V, Vinv
    return divisors, U, V


def saturation_basis(A):
    """Basis of the saturation of the row space of integer matrix A in Z^cols.

    Uses A = U^-1 S V^-1: the saturated lattice is spanned by the first r
    rows of V^-1, r = rank(A).  Returns a list of integer rows.
    """
    divisors, _, _, Vinv = smith_normal_form(A, with_inverse=True)
    r = sum(1 for d in divisors if d != 0)
    return Vinv[:r]


def lcm_denominator(rows) -> int:
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))

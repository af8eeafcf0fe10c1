"""Exact matrix routines over the integers and rationals.

Matrices are lists of lists of Python ints or Fractions; everything here is
arbitrary precision.  The one integer normal form is the Hermite form; it
gives neighbor bases and, through saturation_basis, every saturation and
index, from the rational RREF of a row space.
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
    """Row-style Hermite normal form H of an integer matrix M.

    H spans the same lattice as the rows of M.  Its pivots move strictly
    right and are positive, the entries above each pivot lie in [0, pivot),
    and zero rows sink to the bottom, so H is canonical.  Each entry below a
    pivot is cleared by one unimodular combination of two rows, built from
    the extended gcd of the two entries.
    """
    H = [list(map(int, row)) for row in M]
    rows = len(H)
    r = 0
    for c in range(len(H[0]) if rows else 0):
        if r == rows:
            break
        for i in range(r, rows):
            if H[i][c]:
                break
        else:
            continue
        H[r], H[i] = H[i], H[r]
        top = H[r]
        for i in range(r + 1, rows):
            row = H[i]
            a, b = top[c], row[c]
            if b % a == 0:
                if b:
                    f = b // a
                    H[i] = [y - f * x for x, y in zip(top, row)]
                continue
            # with a, b over their gcd, s a + t b = 1: [[s, t], [-b, a]] is unimodular
            g = math.gcd(a, b)
            a, b = a // g, b // g
            s = pow(a, -1, abs(b))
            t = (1 - s * a) // b
            H[i] = [a * y - b * x for x, y in zip(top, row)]
            top = H[r] = [s * x + t * y for x, y in zip(top, row)]
        if top[c] < 0:
            top = H[r] = [-x for x in top]
        for i in range(r):
            f = H[i][c] // top[c]
            if f:
                H[i] = [y - f * x for x, y in zip(top, H[i])]
        r += 1
    return H


def saturation_basis(q: int, A):
    """(S, den): the Hermite basis S of (row space of A) intersect Z^n, and its index den.

    A / q is a rational matrix of rank r in reduced row echelon form, with A
    its integer numerator, so A = q I on the pivot columns.  A row y A / q
    with y rational is integral iff y is integral (y is its pivot part) and
    y A_N = 0 mod q on the other columns N.  So the saturation is L A / q with
    L = {y in Z^r : y A_N = 0 mod q}, and den = [Z^r : L] is its index in
    Z^r A / q.  The Hermite form of [[A_N, I_r], [q I, 0]] ends in the
    Hermite basis of L, its vectors with no A_N part; L is upper triangular
    and A / q is the identity on its pivots, so L A / q is again a Hermite
    basis, and den is the product of L's diagonal.  The q I rows let A_N be
    taken mod q, and a column of A_N that is 0 mod q constrains nothing.
    """
    r = len(A)
    pivots = {row.index(q) for row in A}   # each row's first nonzero entry is q
    cols = list(zip(*A))
    rest = [[x % q for x in col] for j, col in enumerate(cols) if j not in pivots]
    rest = [col for col in rest if any(col)]
    s = len(rest)
    H = hermite_normal_form([[col[i] for col in rest] + e for i, e in enumerate(identity(r))]
                            + [[q if i == j else 0 for j in range(s + r)] for i in range(s)])
    L = [row[s:] for row in H[s:]]
    S = []
    for Lrow in L:   # Lrow A / q, skipping the zeros of the triangular L
        acc = [0] * len(cols)
        for y, row in zip(Lrow, A):
            if y:
                acc = [u + y * v for u, v in zip(acc, row)]
        S.append([u // q for u in acc])
    return S, math.prod([L[i][i] for i in range(r)])


def lcm_denominator(rows) -> int:
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))

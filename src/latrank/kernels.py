"""Hot numeric kernels: short-vector enumeration, batched rank filters and echelon forms.

Every kernel is array-native NumPy: the enumeration expands a whole level of
the Fincke-Pohst tree at once, and the rank filters and the fraction-free
Gauss-Jordan run one elimination step on every matrix of a batch at once.
gauss_jordan is the library's one elimination over Q: it gives every echelon
matrix of modules.py, intmat.rref and every saturation.  The loop versions
they replace are kept in the tests as reference implementations.

The enumeration kernel works in float64 on an LLL-reduced Gram and is always
followed by an exact integer-arithmetic filter in zlattice.py, so float error
here can only cost a few spurious candidates, never a missed vector (the
caller pads the bound).

The exact kernels here and in zlattice.py and modules.py make one overflow
decision: each computes a bound on every intermediate value and passes it to
int_dtype, which picks int64 or NumPy object arrays of Python ints.  The same
expressions then run on either dtype.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnumerationCapError

# Largest number of children one breadth-first expansion step materializes,
# and the number of matrices one elimination pass holds; bigger frontiers and
# batches are processed in consecutive pieces so one step's memory stays
# bounded (the enumeration's cap bounds the rows it keeps).
_BLOCK = 1 << 16


def fp_enumerate(lmat: np.ndarray, dvec: np.ndarray, bound: float, cap: int) -> np.ndarray:
    """All integer coordinate vectors x with Q(x) <= bound, as an (N, r) int64 array.

    Q(x) = sum_i dvec[i] * (x[i] + c_i)^2 with c_i = sum_{j>i} x[j]*lmat[j,i]
    (lmat unit lower triangular from an LDL^T split of the Gram matrix).

    Breadth-first Fincke-Pohst: one step fixes the next coordinate, x[r-1]
    down to x[0], for every node of a block at once, with the same float
    operations per node as the depth-first loop, so the candidate set is the
    same.  A frontier whose children would exceed _BLOCK is cut into
    consecutive blocks and finished block by block.  Rows come out ordered
    lexicographically on (x[r-1], ..., x[0]).

    The rows created at every level, leaves included, are counted from each
    frontier's exact child count before any child is built; once the count
    would pass `cap`, EnumerationCapError reports it, so no more than `cap`
    rows are ever created.
    """
    r = dvec.shape[0]
    if bound < 0.0:
        return np.zeros((0, r), dtype=np.int64)
    halfw = math.sqrt(bound / dvec[r - 1])
    lo, hi = int(math.ceil(-halfw)), int(math.floor(halfw))
    created = hi - lo + 1
    if created > cap:
        raise EnumerationCapError(created, cap, None)
    top = np.arange(lo, hi + 1, dtype=np.int64)
    t = top.astype(np.float64)
    partial = dvec[r - 1] * t * t
    keep = partial <= bound
    # blocks still to expand, last one first; a block is (level, x[level:], partial)
    stack = [(r - 1, top[keep, None], partial[keep])]
    done = []
    while stack:
        level, xs, part = stack.pop()
        if level == 0:
            done.append(xs)
            continue
        i = level - 1
        center = np.zeros(xs.shape[0])
        for j in range(level, r):
            center += xs[:, j - level] * lmat[j, i]
        halfw = np.sqrt(np.maximum(bound - part, 0.0) / dvec[i])
        lo = np.ceil(-center - halfw).astype(np.int64)
        counts = np.maximum(np.floor(-center + halfw).astype(np.int64) - lo + 1, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.shape[0] else 0
        if created + total > cap:
            raise EnumerationCapError(created + total, cap, None)
        if ends.shape[0] > 1 and total > _BLOCK:
            # the rest goes back on the stack and is counted when it is popped
            cut = max(int(np.searchsorted(ends, _BLOCK, side="right")), 1)
            stack.append((level, xs[cut:], part[cut:]))
            xs, part = xs[:cut], part[:cut]
            center, lo, counts, ends = center[:cut], lo[:cut], counts[:cut], ends[:cut]
            total = int(ends[-1])
        created += total
        parent = np.repeat(np.arange(xs.shape[0]), counts)
        xi = np.arange(total) - np.repeat(ends - counts - lo, counts)
        t = xi + center[parent]
        child = part[parent] + dvec[i] * t * t
        keep = child <= bound
        nxt = np.empty((int(np.count_nonzero(keep)), r - i), dtype=np.int64)
        nxt[:, 0] = xi[keep]
        nxt[:, 1:] = xs[parent[keep]]
        stack.append((i, nxt, child[keep]))
    return np.concatenate(done)


def _eliminate(batch: np.ndarray, combine, jordan: bool):
    """Row elimination on every matrix of an (N, n, m) int64 or object batch at once.

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


def _ranks_by_elimination(batch: np.ndarray, combine) -> np.ndarray:
    """Ranks of an (N, n, m) batch by forward elimination, in _BLOCK pieces."""
    return np.concatenate([_eliminate(batch[start:start + _BLOCK], combine, False)[1]
                           for start in range(0, max(batch.shape[0], 1), _BLOCK)])


def _bareiss_step(rows, pivot_row, pval, entries, prev):
    # exact division: every entry stays a minor of the input (Bareiss)
    return (pval * rows - entries * pivot_row) // prev


def int_dtype(bound: int):
    """np.int64 when `bound` caps every intermediate value, else object (Python ints).

    Below 2**62 the sum or difference of two such values still fits in int64.
    """
    return np.int64 if bound < 2 ** 62 else object


def ranks_int64(batch: np.ndarray) -> np.ndarray:
    """Exact ranks over Z of a (N, n, m) int64 or object batch; the caller picks the dtype.

    Fraction-free Bareiss elimination, vectorized over the batch axis.
    """
    return _ranks_by_elimination(batch, _bareiss_step)


def _bareiss_dtype(batch: np.ndarray):
    max_abs = max(int(batch.max()), -int(batch.min())) if batch.size else 0
    return int_dtype(bareiss_bound(max_abs, batch.shape[1], batch.shape[2]))


def bareiss_bound(max_abs: int, nrow: int, ncol: int) -> int:
    """A bound on the values Bareiss elimination forms from entries bounded by max_abs."""
    k = min(nrow, ncol)
    b = max(max_abs, 1)
    # Hadamard bound (sqrt(ncol) b)^k on any minor, squared by the cross-multiplication
    return ncol ** k * b ** (2 * k + 1)


def ranks_over_z(batch: np.ndarray) -> np.ndarray:
    """Exact ranks over Z of a (N, n, m) integer batch, in int64 or in Python ints."""
    return ranks_int64(batch.astype(_bareiss_dtype(batch), copy=False))


def gauss_jordan(batch: np.ndarray):
    """Fraction-free Gauss-Jordan on a (N, n, m) integer batch, in int64 or in Python ints.

    Bareiss elimination that also clears the entries above each pivot: every
    value stays a minor of the input, so every division is exact.  Returns
    (rows, rank, pivots, den): the first rank[i] rows of matrix i are den[i]
    (its last pivot value, of either sign) times its rational RREF, whose
    t-th pivot, the first nonzero entry of row t, is in column pivots[i, t]
    (-1 past the rank).
    """
    batch = batch.astype(_bareiss_dtype(batch), copy=False)
    parts = [_eliminate(batch[start:start + _BLOCK], _bareiss_step, True)
             for start in range(0, max(batch.shape[0], 1), _BLOCK)]
    rows, rank, den = (np.concatenate(part) for part in zip(*parts))
    pivots = (np.cumsum(rows != 0, axis=2) == 0).sum(axis=2)   # leading zeros
    return rows, rank, np.where(np.arange(batch.shape[1]) < rank[:, None], pivots, -1), den


def ranks_regular(coords: np.ndarray, to_blocks: np.ndarray, d: int) -> np.ndarray:
    """Ranks over a degree-d number field K of integer-coordinate matrices.

    Row t of matrix i holds c entries of K.  Its regular representation, the
    d rows of c*d rationals that replace each entry x by its multiplication
    matrix, all scaled by one integer, is coords[i, t] @ to_blocks, reshaped
    to (d, c*d) (coords (N, n, r), to_blocks (r, d*c*d) integers).  The
    (n d) x (c d) block matrix has rank d * rank_K over Q, which ranks_over_z
    computes.  The batch is transformed and ranked in _BLOCK pieces, each in
    the dtype int_dtype picks for its products.
    """
    nmat, nrow, width = coords.shape
    ncol = to_blocks.shape[1] // d
    scale = width * int(np.max(np.abs(to_blocks)))
    ranks = np.zeros(nmat, dtype=np.int64)
    for start in range(0, nmat, _BLOCK):
        chunk = coords[start:start + _BLOCK]
        max_c = int(np.max(np.abs(chunk))) if chunk.size else 0
        dtype = int_dtype(max_c * scale)
        blocks = chunk.astype(dtype, copy=False) @ to_blocks.astype(dtype)
        ranks[start:start + chunk.shape[0]] = \
            ranks_over_z(blocks.reshape(-1, nrow * d, ncol)) // d
    return ranks


def ranks_mod_p(batch: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of integer matrices reduced mod a prime p.

    Rows below the pivot become pval * row - entry * pivot_row (mod p), a
    row scaled by the unit pval plus a multiple of the pivot row, so no
    pivot inverse is needed; every value stays below 2 p^2 in absolute value.
    """
    if batch.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    dtype = int_dtype(2 * int(p) ** 2)

    def step(rows, pivot_row, pval, entries, prev):
        return (pval * rows - entries * pivot_row) % p

    return _ranks_by_elimination(batch.astype(dtype) % p, step)

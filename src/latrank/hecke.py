"""Lifts of codes: finite Grassmannians, Hecke neighbors, and lattice-sum moments.

A (P, s)-neighbor of O_K^n is the preimage of an s-dimensional subspace of
(O_K/P)^n under reduction mod P, rescaled by T_P = N(P)^((1-s/n)/d) to unit
covolume.  Averaging m-th powers of lattice sums over all neighbors equals a
rank-stratified sum over integral matrices exactly at every finite prime, and
converges to the echelon-matrix series as N(P) grows.

Lattice sums never build a neighbor: one enumeration of O_K^n per prime,
reduced mod P and grouped by residue class, gives the sum over every
neighbor at once, since x lies in the neighbor of S exactly when x mod P
lies in S.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import intmat, kernels
from .counting import TestFunction, term_value_detail
from .errors import InvariantError, ValidationError
from .exactval import PowerProduct
from .kernels import int_dtype, ranks_mod_p
from .modules import enumerate_primitive_modules
from .numfield import NumberField, PrimeIdealData, rank_over_K
from .zlattice import ZLattice, okn_lattice

# Largest Grassmannian enumerate_subspaces lists, and the largest on which
# convergence_table's "auto" mode averages exactly instead of sampling.
SUBSPACE_CAP = 2_000_000
EXACT_SUBSPACE_CAP = 5000

# Subspaces drawn per prime by convergence_table's "sampled" and "auto" modes.
DEFAULT_SAMPLE_COUNT = 2000

# Largest number of (subspace, residue class) membership tests one batched
# pass holds; the subspaces are tested in consecutive chunks of
# _PAIR_BLOCK // (number of classes), so a pass's memory stays bounded at
# every prime (the convention of kernels._BLOCK).
_PAIR_BLOCK = 1 << 18


# -- finite Grassmannians ---------------------------------------------------------


@dataclass(frozen=True)
class FiniteSubspace:
    """Canonical echelon basis of an s-dimensional subspace of F_q^n."""

    q: int
    n: int
    s: int
    rows: tuple   # s rows of length n, entries in [0, q)

    def __post_init__(self):
        if len(self.rows) != self.s:
            raise ValueError(f"need s = {self.s} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError(f"rows must have length n = {self.n}, got {len(row)}")
            if not all(0 <= x < self.q for x in row):
                raise ValueError(f"entries must lie in [0, {self.q}), got {row}")
        pivots = []
        for i, row in enumerate(self.rows):
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None or row[piv] != 1:
                raise ValueError("rows must be reduced echelon with unit pivots")
            if pivots and piv <= pivots[-1]:
                raise ValueError("pivot columns must increase")
            for i2 in range(len(self.rows)):
                if i2 != i and self.rows[i2][piv] != 0:
                    raise ValueError("pivot columns must be cleared")
            pivots.append(piv)


def gaussian_binomial(u: int, t: int, q: int) -> int:
    """Number of u-dimensional subspaces of F_q^t, exact."""
    if u < 0 or u > t:
        return 0
    num = 1
    den = 1
    for i in range(u):
        num *= q ** t - q ** i
        den *= q ** u - q ** i
    return num // den


def _free_positions(pivots, n):
    """Fillable entries of the reduced echelon pattern with the given pivots."""
    pivset = set(pivots)
    free = []
    for i, p in enumerate(pivots):
        for j in range(p + 1, n):
            if j not in pivset:
                free.append((i, j))
    return free


def _subspace_rows(s: int, n: int, q: int) -> np.ndarray:
    """(|Gr|, s, n) int64 echelon rows of every s-dimensional subspace of F_q^n.

    Pivot sets come in itertools.combinations order and, within one, the
    free entries in itertools.product order over range(q).
    """
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    count = gaussian_binomial(s, n, q)
    if count > SUBSPACE_CAP:
        raise ValidationError(
            f"Grassmannian has {count} subspaces > cap {SUBSPACE_CAP}; use sampling"
        )
    cells = []
    for pivots in itertools.combinations(range(n), s):
        free = _free_positions(pivots, n)
        size = q ** len(free)
        cell = np.zeros((size, s, n), dtype=np.int64)
        cell[:, range(s), pivots] = 1
        fills = np.indices((q,) * len(free)).reshape(len(free), size)
        for (i, j), column in zip(free, fills):
            cell[:, i, j] = column
        cells.append(cell)
    out = np.concatenate(cells)
    assert len(out) == count
    return out


def enumerate_subspaces(s: int, n: int, q: int):
    """All canonical echelon bases of s-dimensional subspaces of F_q^n."""
    return [FiniteSubspace(q=q, n=n, s=s, rows=tuple(map(tuple, rows)))
            for rows in _subspace_rows(s, n, q).tolist()]


def sample_subspace(s: int, n: int, q: int, rng: np.random.Generator) -> FiniteSubspace:
    """Uniform random subspace via the Schubert-cell construction.

    Pivot sets are drawn with probability proportional to their cell size
    q^(number of free entries); free entries are then uniform, so every
    subspace has probability 1/gaussian_binomial(s, n, q) by construction.
    """
    if s == 0:
        return FiniteSubspace(q=q, n=n, s=0, rows=())
    combos = list(itertools.combinations(range(n), s))
    weights = np.array([float(q) ** len(_free_positions(p, n)) for p in combos])
    weights /= weights.sum()
    pivots = combos[int(rng.choice(len(combos), p=weights))]
    free = _free_positions(pivots, n)
    rows = [[0] * n for _ in range(s)]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
    for (i, j) in free:
        rows[i][j] = int(rng.integers(q))
    return FiniteSubspace(q=q, n=n, s=s, rows=tuple(tuple(r) for r in rows))


def containment_probability(k: int, s: int, n: int, q: int) -> Fraction:
    """Probability that a uniform s-dim subspace of F_q^n contains a fixed k-dim one."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return Fraction(1)
    if s < k:
        return Fraction(0)
    return Fraction(gaussian_binomial(s - k, n - k, q), gaussian_binomial(s, n, q))


def _check_matrices(rows: np.ndarray, q: int) -> np.ndarray:
    """(B, n - s, n) bases of the annihilators of the subspaces with echelon rows (B, s, n).

    Each non-pivot column j gives the check row with 1 at j and -rows[i][j]
    at the pivot of row i, orthogonal to every row of the echelon basis.
    """
    B, s, n = rows.shape
    pivots = (rows != 0).argmax(axis=2)                          # (B, s)
    is_pivot = np.zeros((B, n), dtype=bool)
    np.put_along_axis(is_pivot, pivots, True, axis=1)
    free = np.argsort(is_pivot, axis=1, kind="stable")[:, :n - s]  # (B, n - s)
    checks = np.zeros((B, n - s, n), dtype=np.int64)
    at = np.arange(B)[:, None, None]
    check_row = np.arange(n - s)[None, None, :]
    checks[at[:, :, 0], check_row[0], free] = 1
    # checks[b, t, pivots[b, i]] = -rows[b, i, free[b, t]]
    checks[at, check_row, pivots[:, :, None]] = \
        -np.take_along_axis(rows, free[:, None, :], axis=2) % q
    return checks


# -- Hecke neighbors -----------------------------------------------------------------


def _t_scale_sq(p: int, n: int, s: int, d: int) -> PowerProduct:
    """T_P^2 = N(P)^(2 (n - s) / (n d)) for a degree-one prime above p."""
    return PowerProduct.of(p, Fraction(2 * (n - s), n * d))


def _residues(field: NumberField, P: PrimeIdealData, coords: np.ndarray) -> np.ndarray:
    """(N, n) int64 images mod P of the points of O_K^n with okn_lattice coordinates coords.

    One integer product with the (n d, n) residue matrix, whose column c
    holds the images of the integral basis under theta -> P.root in rows
    c d .. c d + d - 1.
    """
    d = field.degree
    n = coords.shape[1] // d
    images = np.array([[field.reduce_mod_prime(u, P)] for u in field.basis_elements()])
    residue = np.kron(np.eye(n, dtype=np.int64), images)
    max_c = int(np.max(np.abs(coords))) if coords.size else 0
    dtype = int_dtype(n * d * max_c * P.p)
    return (coords.astype(dtype, copy=False) @ residue.astype(dtype) % P.p).astype(np.int64)


@dataclass
class HeckeLattice:
    """Unit-covolume rescaling of the preimage of a subspace mod P."""

    lattice: ZLattice            # the unscaled integral lattice, P^n <= L <= O_K^n
    prime: PrimeIdealData
    subspace: FiniteSubspace
    t_scale: float               # T_P
    t_scale_sq: PowerProduct     # exact T_P^2

    def covolume_sq(self) -> PowerProduct:
        n = self.subspace.n
        d = self.lattice.ambient_dim // n
        return self.lattice.height_sq() / self.t_scale_sq ** (n * d)

    def covolume(self) -> float:
        return math.sqrt(float(self.covolume_sq()))


def hecke_neighbor(field: NumberField, P: PrimeIdealData, S: FiniteSubspace,
                   base: ZLattice | None = None) -> HeckeLattice:
    """The (P, s)-neighbor of O_K^n attached to the subspace S."""
    if S.q != P.p:
        raise ValueError("subspace is over the wrong residue field")
    n, s, p = S.n, S.s, P.p
    d = field.degree
    okn = base or okn_lattice(field, n)
    theta = field.gen()
    gens = []   # integral-basis coordinate rows, length n*d
    for row in S.rows:
        lifted = tuple(field.coerce(int(a)) for a in row)
        for u in field.basis_elements():
            vec = tuple(u * x for x in lifted)
            gens.append([c for x in vec for c in field.integral_coords(x)])
    for mult in [field.coerce(p), theta - P.root]:
        for u in field.basis_elements():
            prod = mult * u
            coords = field.integral_coords(prod)
            for c in range(n):
                vec = [0] * (n * d)
                vec[c * d:(c + 1) * d] = coords
                gens.append(vec)
    basis_w = [row for row in intmat.hermite_normal_form(gens) if any(row)]
    if len(basis_w) != n * d:
        raise InvariantError("neighbor rank: the construction produced a degenerate lattice")
    det = 1
    for i in range(n * d):
        det *= basis_w[i][i]
    if abs(det) != p ** (n - s):
        raise InvariantError(f"neighbor index: {abs(det)} != p^(n-s) = {p ** (n - s)}")
    basis = intmat.mat_mul(basis_w, [list(r) for r in okn.basis])
    lat = ZLattice(basis, okn.ambient)
    t_sq = _t_scale_sq(p, n, s, d)
    hl = HeckeLattice(lattice=lat, prime=P, subspace=S,
                      t_scale=math.sqrt(float(t_sq)), t_scale_sq=t_sq)
    if not hl.covolume_sq() == PowerProduct.coerce(1):
        raise InvariantError("neighbor covolume: the rescaled lattice does not have covolume 1")
    return hl


def _neighbor_sums(field: NumberField, P: PrimeIdealData, rows: np.ndarray, g: TestFunction,
                   include_zero: bool, check_incidence: bool = False) -> list:
    """Sum of g over each rescaled (P, s)-neighbor of O_K^n, one per echelon basis in rows.

    rows is a (B, s, n) integer array.  The neighbor of S is
    L_S = {x in O_K^n : x mod P in S}, so one enumeration of O_K^n at g's
    support radius times T_P serves all of them: the points are reduced mod
    P and grouped by residue class, and each class is tested against the
    check matrix of each S, in chunks of _PAIR_BLOCK tests.  Ball
    indicators give exact int counts; custom g sums its values on the
    embedded points divided by T_P, as floats.

    With check_incidence, rows must be the whole Grassmannian, and the
    points counted over all neighbors must match the incidence count: the
    zero class lies in every S and any other class in the
    gaussian_binomial(s - 1, n - 1, p) subspaces that contain it.
    """
    p = P.p
    _, s, n = rows.shape
    coords, values = g.lattice_points(okn_lattice(field, n),
                                      _t_scale_sq(p, n, s, field.degree))
    if not include_zero:
        nonzero = (coords != 0).any(axis=1)
        coords = coords[nonzero]
        values = None if values is None else values[nonzero]
    classes, inverse, counts = np.unique(_residues(field, P, coords), axis=0,
                                         return_inverse=True, return_counts=True)
    dtype = int_dtype(n * p * p)
    classes_t = classes.T.astype(dtype)
    hits = np.zeros(len(rows), dtype=np.int64)
    sums = np.zeros(len(rows)) if values is not None else hits
    if values is not None:
        class_values = np.bincount(inverse.reshape(-1), weights=values,
                                   minlength=len(classes))
    step = max(1, _PAIR_BLOCK // max(1, len(classes)))
    for start in range(0, len(rows), step):
        checks = _check_matrices(rows[start:start + step], p).astype(dtype)
        inside = (checks @ classes_t % p == 0).all(axis=1)       # (chunk, classes)
        hits[start:start + step] = inside @ counts
        if values is not None:
            sums[start:start + step] = inside @ class_values
    if check_incidence:
        zero_class = int(counts[~classes.any(axis=1)].sum())
        want = (gaussian_binomial(s, n, p) * zero_class
                + gaussian_binomial(s - 1, n - 1, p) * (len(coords) - zero_class))
        got = int(hits.sum())
        if got != want:
            raise InvariantError(
                f"neighbor incidence: {got} points counted over {len(rows)} "
                f"neighbors, expected {want}")
    return sums.tolist()


def lattice_sum(hl: HeckeLattice, g: TestFunction, include_zero: bool = True):
    """Sum of g over the rescaled lattice.

    Ball indicators give an exact integer count; custom g is evaluated in
    floating point on the embedded rescaled vectors.
    """
    S = hl.subspace
    rows = np.array(S.rows, dtype=np.int64).reshape(1, S.s, S.n)
    return _neighbor_sums(hl.lattice.ambient.field, hl.prime, rows, g, include_zero)[0]


# -- moments ----------------------------------------------------------------------------


@dataclass
class MomentReport:
    p: int
    s: int
    n: int
    m: int
    mode: str
    lhs: float
    stratified: float | None
    rhs_limit: float
    abs_error: float
    lhs_exact: Fraction | None = None
    stratified_exact: Fraction | None = None
    sample_stderr: float = 0.0


def moment_lhs(field: NumberField, P: PrimeIdealData, n: int, s: int, m: int,
               g: TestFunction, mode: str = "exact", sample_count: int = 0,
               seed=None, include_zero: bool = True):
    """Average of (sum of g over the neighbor)^m over the neighbors of O_K^n.

    Exact mode returns a Fraction for indicator g, and raises InvariantError
    when the neighbor sums miss the incidence count; sampled mode returns
    (mean, stderr) over uniformly sampled subspaces.  Every neighbor's sum
    comes from one enumeration of O_K^n (see _neighbor_sums).
    """
    if mode == "exact":
        rows = _subspace_rows(s, n, P.p)
        sums = _neighbor_sums(field, P, rows, g, include_zero, check_incidence=True)
        total = sum(x ** m for x in sums)
        if isinstance(total, int):   # indicator counts average exactly
            return Fraction(total, len(rows))
        return total / len(rows)
    if mode == "sampled":
        if sample_count <= 0:
            raise ValueError("sample_count must be positive in sampled mode")
        rng = np.random.default_rng(seed)
        rows = np.array([sample_subspace(s, n, P.p, rng).rows for _ in range(sample_count)],
                        dtype=np.int64).reshape(sample_count, s, n)
        vals = np.array([x ** m for x in _neighbor_sums(field, P, rows, g, include_zero)],
                        dtype=float)
        stderr = float(vals.std(ddof=1) / math.sqrt(sample_count)) if sample_count > 1 else 0.0
        return float(vals.mean()), stderr
    raise ValueError(f"unknown mode {mode!r}")


def moment_stratified(field: NumberField, P: PrimeIdealData, n: int, s: int, m: int,
                      g: TestFunction) -> Fraction:
    """Rank-stratified rewriting of the moment: exact at every finite prime.

    Sums, over integral n x m matrices x with every column inside the support
    of g scaled by T_P, the probability that a uniform s-dim subspace contains
    the span of x mod P.  The probability is driven by the rank of x mod P,
    not the rank over K.
    """
    p = P.p
    cols = g.points_inside(okn_lattice(field, n), _t_scale_sq(p, n, s, field.degree).sqrt())
    red_arr = _residues(field, P, cols)                         # (|C|, n)
    probs = [containment_probability(k, s, n, p) for k in range(min(n, m) + 1)]
    # every m-tuple of columns, in itertools.product order and in pieces of
    # kernels._BLOCK tuples, so memory stays bounded however large |C|^m is
    shape, total = (len(cols),) * m, len(cols) ** m
    counts = np.zeros(len(probs), dtype=np.int64)
    for start in range(0, total, kernels._BLOCK):
        combos = np.unravel_index(np.arange(start, min(start + kernels._BLOCK, total)), shape)
        batch = np.stack([red_arr[c] for c in combos], axis=2)  # (block, n, m)
        counts += np.bincount(ranks_mod_p(batch, p), minlength=len(probs))
    return sum((int(c) * probs[k] for k, c in enumerate(counts)), Fraction(0))


def moment_rhs_limit(field: NumberField, n: int, m: int, g: TestFunction,
                     height_cutoff, mc_samples: int = 4000, seed=None):
    """Limit value of the moments: sum over ranks k of the echelon series.

    The k = 0 term is g(0)^m; each k >= 1 term integrates the column-product
    of g against the module measure.  For a ball g that column product is a
    product of balls, whose term is closed form on O_K^m and on every module
    whose column blocks are similarities of its row space (every line over Q
    and Q(i)), and Monte Carlo on the rest (`ProductOfBalls.module_term`).
    Each module draws from its own stream, so the closed forms leave the
    other modules' estimates as they were.  Returns (value, per_k breakdown,
    stderr).
    """
    if not (n >= 2 and 1 <= m <= n - 1):
        raise ValidationError(f"need n >= 2 and 1 <= m <= n-1, got n={n}, m={m}")
    if mc_samples < 1:
        raise ValidationError(f"the moment limit integrates the column product of g by Monte "
                              f"Carlo and needs mc_samples (--mc-samples) >= 1, got {mc_samples}")
    f = g.column_product(m, field.degree)
    per_k = [g.at_zero(n, field.degree) ** m]
    stderr_sq = 0.0
    base_seed = 0 if seed is None else int(seed)
    for k in range(1, m + 1):
        modules = enumerate_primitive_modules(field, k, m, height_cutoff)
        acc = 0.0
        for idx, P in enumerate(modules):
            tv = term_value_detail(P, n, f, mc_samples=mc_samples,
                                   seed=np.random.SeedSequence((base_seed, k, idx)))
            acc += tv.value
            stderr_sq += tv.stderr ** 2
        per_k.append(acc)
    return sum(per_k), per_k, math.sqrt(stderr_sq)


def rank_drop_check(field: NumberField, rows, P: PrimeIdealData):
    """Ranks over K and mod P, with the explicit norm lower bound when rank drops.

    The implemented constant: if rank drops from k, then
    ||x|| >= (N(P) / (k!^d |disc|^(k/2)))^(1/(kd)).
    """
    kmat = [[field.coerce(x) for x in row] for row in rows]
    rank_K = rank_over_K(kmat)
    mat = np.array([[field.reduce_mod_prime(x, P) for x in row] for row in kmat],
                   dtype=np.int64)
    rank_modp = int(ranks_mod_p(mat[None, :, :], P.p)[0])
    d = field.degree
    k = rank_K
    if rank_modp >= rank_K or rank_K == 0:
        return rank_K, rank_modp, True, 0.0
    c = (math.factorial(k) ** d * abs(field.discriminant) ** (k / 2.0)) ** (-1.0 / (k * d))
    threshold = c * P.norm ** (1.0 / (k * d))
    sq = sum(field.t2(x, x) for row in kmat for x in row)
    norm = math.sqrt(float(field.scale_sq) * float(sq))
    return rank_K, rank_modp, norm >= threshold * (1 - 1e-12), threshold


def validate_moment_window(n: int, m: int, s: int) -> None:
    """Admissible (m, s): s = n-1, or m <= s <= n-1 with 1 - s/n < 1/m; n >= 2, m >= 1."""
    if n < 2 or m < 1:
        raise ValidationError(f"need n >= 2 and m >= 1: n={n}, m={m}")
    if s == n - 1 and 1 <= m <= n - 1:
        return
    if not Fraction(1) - Fraction(s, n) < Fraction(1, m):
        raise ValidationError(
            f"violated 1 - s/n < 1/m: 1 - {s}/{n} = {Fraction(n - s, n)} >= 1/{m}"
        )
    if not m <= s <= n - 1:
        raise ValidationError(f"need m <= s <= n-1 (or s = n-1): m={m}, s={s}, n={n}")


def parse_mode(mode: str) -> tuple[str, int]:
    """(kind, sample count) of a convergence_table mode; ValidationError otherwise.

    The modes are exact, auto, sampled and sampled:<count> with count >= 1.
    Bare sampled, and auto at a prime whose Grassmannian has more than
    EXACT_SUBSPACE_CAP subspaces, draw DEFAULT_SAMPLE_COUNT subspaces.
    """
    if mode == "exact":
        return mode, 0
    if mode in ("auto", "sampled"):
        return mode, DEFAULT_SAMPLE_COUNT
    count = re.fullmatch(r"sampled:([0-9]+)", mode)
    if count is None or int(count[1]) < 1:
        raise ValidationError(f"unknown mode {mode!r}: expected exact, auto, sampled "
                              "or sampled:<count> with count >= 1")
    return "sampled", int(count[1])


def convergence_table(field: NumberField, n: int, m: int, s: int, g: TestFunction,
                      primes, mode: str = "exact", height_cutoff=30,
                      mc_samples: int = 4000, seed=None) -> list[MomentReport]:
    """Per-prime moments against the limit value; the error should trend down."""
    validate_moment_window(n, m, s)
    kind, sample_count = parse_mode(mode)
    rhs, _, rhs_err = moment_rhs_limit(field, n, m, g, height_cutoff,
                                       mc_samples=mc_samples, seed=seed)
    reports = []
    for p in primes:
        P = field.prime_above(p)
        stratified = moment_stratified(field, P, n, s, m, g)
        if kind == "exact" or (kind == "auto"
                               and gaussian_binomial(s, n, p) <= EXACT_SUBSPACE_CAP):
            lhs_val = moment_lhs(field, P, n, s, m, g, mode="exact")
            reports.append(MomentReport(
                p=p, s=s, n=n, m=m, mode="exact",
                lhs=float(lhs_val), stratified=float(stratified), rhs_limit=rhs,
                abs_error=abs(float(lhs_val) - rhs),
                lhs_exact=lhs_val, stratified_exact=stratified))
        else:
            mean, stderr = moment_lhs(field, P, n, s, m, g, mode="sampled",
                                      sample_count=sample_count, seed=seed)
            reports.append(MomentReport(
                p=p, s=s, n=n, m=m, mode=f"sampled:{sample_count}",
                lhs=mean, stratified=float(stratified), rhs_limit=rhs,
                abs_error=abs(mean - rhs),
                stratified_exact=stratified, sample_stderr=stderr))
    return reports

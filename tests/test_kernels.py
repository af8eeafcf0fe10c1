"""The vectorized kernels must agree with the reference loops in tests_support."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latrank import kernels
from latrank.errors import EnumerationCapError
from latrank.zlattice import DEFAULT_ENUM_CAP as CAP
from tests_support import (eliminate_reference, fp_enumerate_loop, ranks_int_loop,
                           ranks_mod_p_loop, rref_loop)


def _cholesky_data(gram):
    g = np.array(gram, dtype=float)
    chol = np.linalg.cholesky(g)
    dvec = np.diag(chol) ** 2
    lmat = chol / np.diag(chol)[None, :]
    return lmat, dvec


def _loop_enumerate(lmat, dvec, bound):
    out = np.zeros((1 << 16, len(dvec)), dtype=np.int64)
    n = fp_enumerate_loop(lmat, dvec, bound, -10 ** 9, 10 ** 9, out)
    assert n >= 0
    return out[:n]


def _random_gram(rng, r):
    while True:
        B = rng.integers(-4, 5, size=(r, r + 1))
        g = B @ B.T
        if np.linalg.matrix_rank(g) == r:
            return g


def test_fp_enumerate_paths_agree():
    # same rows in the same order as the depth-first loop, ranks 1 to 6
    rng = np.random.default_rng(0)
    for r in range(1, 7):
        for _ in range(3):
            lmat, dvec = _cholesky_data(_random_gram(rng, r))
            bound = float(rng.integers(4, 60))
            got = kernels.fp_enumerate(lmat, dvec, bound, CAP)
            assert got.dtype == np.int64
            assert np.array_equal(got, _loop_enumerate(lmat, dvec, bound))


def test_fp_enumerate_z2_counts():
    lmat, dvec = _cholesky_data([[1, 0], [0, 1]])
    assert len(kernels.fp_enumerate(lmat, dvec, 4.0 + 1e-9, CAP)) == 13
    assert len(kernels.fp_enumerate(lmat, dvec, -1.0, CAP)) == 0


def test_fp_chunked_expansion(monkeypatch):
    # frontiers cut into blocks of a few children give the same rows and order
    rng = np.random.default_rng(3)
    cases = [(np.eye(2), 100.0)] + [(_random_gram(rng, r), 30.0) for r in (3, 4, 5)]
    expect = [kernels.fp_enumerate(*_cholesky_data(g), b, CAP) for g, b in cases]
    monkeypatch.setattr(kernels, "_BLOCK", 7)
    for (g, b), want in zip(cases, expect):
        got = kernels.fp_enumerate(*_cholesky_data(g), b, CAP)
        assert np.array_equal(got, want)
    lmat, dvec = _cholesky_data(np.eye(2))
    assert len(kernels.fp_enumerate(lmat, dvec, 100.0, CAP)) == sum(
        1 for a in range(-10, 11) for b in range(-10, 11) if a * a + b * b <= 100)


def _rows_created(lmat, dvec, bound):
    """The smallest cap the kernel finishes under: the rows it creates in all."""
    lo, hi = 0, CAP
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            kernels.fp_enumerate(lmat, dvec, bound, mid)
            hi = mid
        except EnumerationCapError:
            lo = mid + 1
    return lo


def test_fp_cap_on_the_running_count(monkeypatch):
    # the cap counts the rows created at every level, whatever the block size:
    # under it the rows are unchanged, and any smaller cap, in particular one
    # below the number of rows returned, raises with a count past the cap
    rng = np.random.default_rng(4)
    cases = [(np.eye(2), 100.0)] + [(_random_gram(rng, r), 30.0) for r in (3, 4, 5)]
    created = {}
    for block in (kernels._BLOCK, 7):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for case, (g, b) in enumerate(cases):
            lmat, dvec = _cholesky_data(g)
            want = _loop_enumerate(lmat, dvec, b)
            need = _rows_created(lmat, dvec, b)
            assert need > len(want)
            assert created.setdefault(case, need) == need
            assert np.array_equal(kernels.fp_enumerate(lmat, dvec, b, need), want)
            for cap in {0, 1, len(want) // 2, len(want) - 1, need - 1}:
                with pytest.raises(EnumerationCapError) as exc:
                    kernels.fp_enumerate(lmat, dvec, b, cap)
                assert exc.value.estimate > cap == exc.value.cap
    # Z^2, radius 10: 21 values of x[1], then the 317 points
    assert created[0] == 21 + 317


def _rank_batches(rng):
    """Random, zero and rank-deficient batches of several shapes."""
    out = []
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 5)]:
        full = rng.integers(-9, 10, size=(40, n, m))
        thin = rng.integers(-3, 4, size=(40, n, 1)) @ rng.integers(-3, 4, size=(40, 1, m))
        sparse = full * (rng.random((40, n, m)) < 0.3)
        zero = np.zeros((3, n, m), dtype=np.int64)
        out.append(np.concatenate([full, thin, sparse, zero]).astype(np.int64))
    return out


def test_ranks_paths_agree(monkeypatch):
    rng = np.random.default_rng(1)
    batches = _rank_batches(rng)
    for batch in batches:
        expect = [rref_loop(M.tolist())[2] for M in batch]
        loop = ranks_int_loop(batch, np.zeros(len(batch), dtype=np.int64))
        assert list(loop) == expect
        assert list(kernels.ranks_int64(batch)) == expect
        assert list(kernels.ranks_over_z(batch)) == expect
        # the same elimination on Python ints, scaled past int64
        assert list(kernels.ranks_over_z(batch.astype(object) * 2 ** 40)) == expect
    # batches that cross a chunk boundary
    monkeypatch.setattr(kernels, "_BLOCK", 16)
    for batch in batches:
        expect = [rref_loop(M.tolist())[2] for M in batch]
        assert list(kernels.ranks_over_z(batch)) == expect
    assert kernels.ranks_over_z(np.zeros((0, 3, 2), dtype=np.int64)).shape == (0,)


def test_gauss_jordan_matches_rref(monkeypatch):
    # den * RREF, rank and pivots against the Fraction loop rref_loop, in
    # int64, in Python ints scaled past int64, and across a chunk boundary
    rng = np.random.default_rng(2)
    for batch in _rank_batches(rng):
        expect = [rref_loop(M.tolist()) for M in batch]
        for scaled in (batch, batch.astype(object) * 2 ** 40):
            for block in (kernels._BLOCK, 16):
                monkeypatch.setattr(kernels, "_BLOCK", block)
                rows, rank, pivots, den = kernels.gauss_jordan(scaled)
                for i, (R, piv, rk) in enumerate(expect):
                    assert rank[i] == rk
                    assert list(pivots[i]) == piv + [-1] * (len(R) - rk)
                    assert [[Fraction(x, int(den[i])) for x in row] for row in rows[i, :rk].tolist()] == R[:rk]
    assert [x.shape for x in kernels.gauss_jordan(np.zeros((0, 3, 2), dtype=np.int64))] == \
        [(0, 3, 2), (0,), (0, 3), (0,)]


def _eliminate_in_blocks(batch, combine, jordan):
    """kernels._eliminate over the batch-last blocks of a batch, rows in swap order."""
    parts = []
    for work in kernels._blocks(batch):
        pos, rank, prev = kernels._eliminate(work, combine, jordan)
        parts.append((kernels._swap_order(work, pos), rank, prev))
    return [np.concatenate(part) for part in zip(*parts)]


def _assert_identical(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


def _eliminate_paths(batch):
    """(batch, combine) for every path that runs _eliminate: Bareiss in int64
    and on Python ints scaled past int64, and mod p in int64 and in Python ints."""
    out = [(batch, kernels._bareiss_step),
           (batch.astype(object) * 2 ** 40, kernels._bareiss_step)]
    for p in (2, 53, 46349, 2147483659):
        dtype = kernels.int_dtype(2 * p * p)
        out.append((batch.astype(dtype) * 1009 % p, functools.partial(kernels._mod_p_step, p=p)))
    return out


@st.composite
def _small_batches(draw):
    """Full, thin (rank <= 1), sparse and zero batches, n and m from 0 to 5."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    nmat = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["full", "thin", "sparse", "zero"]))
    if kind == "full":
        batch = rng.integers(-9, 10, size=(nmat, n, m))
    elif kind == "thin":
        batch = rng.integers(-3, 4, size=(nmat, n, 1)) * rng.integers(-3, 4, size=(nmat, 1, m))
    elif kind == "sparse":
        batch = rng.integers(-9, 10, size=(nmat, n, m)) * (rng.random((nmat, n, m)) < 0.3)
    else:
        batch = np.zeros((nmat, n, m))
    return batch.astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(batch=_small_batches())
def test_eliminate_matches_reference(batch):
    # bit for bit: rows in the order of a row-swapping elimination, rank and
    # last pivot in both modes, and gauss_jordan's pivots and den, in blocks
    # of 7 matrices so that a batch crosses blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", 7)
        for work, combine in _eliminate_paths(batch):
            for jordan in (False, True):
                _assert_identical(_eliminate_in_blocks(work, combine, jordan),
                                  eliminate_reference(work, combine, jordan))
        for work in (batch, batch.astype(object) * 2 ** 40):
            rows, rank, pivots, den = kernels.gauss_jordan(work)
            work = work.astype(kernels._bareiss_dtype(work))    # what gauss_jordan runs on
            ref_rows, ref_rank, ref_den = eliminate_reference(work, kernels._bareiss_step, True)
            lead = (np.cumsum(ref_rows != 0, axis=2) == 0).sum(axis=2)
            ref_pivots = np.where(np.arange(work.shape[1]) < ref_rank[:, None], lead, -1)
            _assert_identical((rows, rank, pivots, den), (ref_rows, ref_rank, ref_pivots, ref_den))


def test_eliminate_keeps_the_swap_order():
    # rows a, b, c: only c is nonzero in column 0, so a row swap puts c first
    # and a last, and the second pivot is b, the first of b, a; in the input
    # order it would be a, and den would be 3 instead of 6
    batch = np.array([[[0, 1], [0, 2], [3, 0]]], dtype=np.int64)
    rows, rank, pivots, den = kernels.gauss_jordan(batch)
    assert rows.tolist() == [[[6, 0], [0, 6], [0, 0]]]
    assert rank.tolist() == [2] and pivots.tolist() == [[0, 1, -1]] and den.tolist() == [6]
    assert [[Fraction(x, 6) for x in row] for row in rows[0, :2].tolist()] == \
        rref_loop(batch[0].tolist())[0][:2]
    for work, combine in _eliminate_paths(batch):
        for jordan in (False, True):
            _assert_identical(_eliminate_in_blocks(work, combine, jordan),
                              eliminate_reference(work, combine, jordan))
    assert _eliminate_in_blocks(batch, kernels._bareiss_step, False)[2].tolist() == [6]


def _rref_mod_p_oracle(M, p):
    """Gauss-Jordan over F_p on Python ints: (rank, reduced echelon rows with unit pivots)."""
    rows = [[int(v) % p for v in row] for row in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows


@settings(max_examples=60, deadline=None)
@given(batch=_small_batches(), p=st.sampled_from([2, 3, 5, 53, 46337, 2147483659]))
def test_echelon_mod_p_matches_oracle(batch, p):
    # the canonical echelon basis mod p, zero rows below it, in blocks of 7
    # matrices so that a batch crosses blocks; 2 p^2 > 2**62 at the last p,
    # which runs in Python ints
    assume(batch.shape[2] > 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", 7)
        got = kernels.echelon_mod_p(batch % p, p)
    assert got.shape == batch.shape
    assert got.tolist() == [_rref_mod_p_oracle(M, p)[1] for M in batch]


def test_ranks_mod_p_paths_agree(monkeypatch):
    rng = np.random.default_rng(2)
    batches = _rank_batches(rng)
    for p in (2, 3, 5, 11, 53, 46337):
        for batch in batches:
            batch = batch * rng.integers(1, 10 ** 6, size=batch.shape)  # entries past p
            expect = ranks_mod_p_loop(batch, np.int64(p), np.zeros(len(batch), dtype=np.int64))
            assert np.array_equal(kernels.ranks_mod_p(batch, p), expect)
            assert list(expect) == [_rref_mod_p_oracle(M, p)[0] for M in batch]
    monkeypatch.setattr(kernels, "_BLOCK", 16)
    batch = batches[4]
    expect = ranks_mod_p_loop(batch, np.int64(5), np.zeros(len(batch), dtype=np.int64))
    assert np.array_equal(kernels.ranks_mod_p(batch, 5), expect)
    # p * I has rank 0 mod p
    assert list(kernels.ranks_mod_p(np.array([5 * np.eye(3, dtype=np.int64)]), 5)) == [0]
    # every prime: 46349 runs in int64, 2147483659 (2 p^2 > 2**62) in Python ints
    for p, dtype in ((46349, np.int64), (2147483659, object)):
        assert kernels.int_dtype(2 * p * p) is dtype
        for batch in batches:
            batch = batch * rng.integers(1, 10 ** 6, size=batch.shape)
            assert list(kernels.ranks_mod_p(batch, p)) == \
                [_rref_mod_p_oracle(M, p)[0] for M in batch]


def test_ranks_mod_p_reduces_each_block(monkeypatch):
    # entries below 0 and at or past p, reduced in each block of 16 matrices;
    # the first block holds residues in [0, p) already, which are kept as they
    # are; against the row-swapping elimination of the batch reduced beforehand
    monkeypatch.setattr(kernels, "_BLOCK", 16)
    rng = np.random.default_rng(4)
    for p in (2, 53, 2147483659):
        step = functools.partial(kernels._mod_p_step, p=p)
        dtype = kernels.int_dtype(2 * p * p)
        for batch in _rank_batches(rng):
            batch = batch * rng.integers(1, 10 ** 12, size=batch.shape)
            batch[:16] %= p
            assert batch.min() < 0 and batch.max() >= p
            before = batch.copy()
            expect = eliminate_reference(batch.astype(dtype) % p, step, False)[1]
            assert np.array_equal(kernels.ranks_mod_p(batch, p), expect)
            assert np.array_equal(batch, before)


def test_int_dtype_boundary():
    assert kernels.int_dtype(2 ** 62 - 1) is np.int64
    assert kernels.int_dtype(2 ** 62) is object


def test_ranks_over_z_bigint_fallback():
    big = 10 ** 12
    batch = np.array([[[big, 0], [0, big]], [[big, big], [big, big]],
                      [[big, 1], [big + 1, 1]], [[0, 0], [0, 0]]], dtype=np.int64)
    assert kernels.int_dtype(kernels.bareiss_bound(big + 1, 2, 2)) is object
    assert list(kernels.ranks_over_z(batch)) == [2, 1, 2, 0]
    huge = np.array([[[10 ** 30, 1], [2 * 10 ** 30, 2]], [[10 ** 30, 1], [1, 10 ** 30]]],
                    dtype=object)
    assert list(kernels.ranks_over_z(huge)) == [1, 2]

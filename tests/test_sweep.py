"""The sign-block sweep of every fitter against the whole-table reference
fits in helpers.py: labels, parameters, traces and model files bit for bit,
for any block of a multiple of 8 signs and any thread count."""

import functools
import sys
import tracemalloc

import numpy as np
import pytest

from mh_phone import estimation
from mh_phone.baselines import fit_gmm, fit_gmm_lda
from mh_phone.corpus import Corpus, synth_corpus
from mh_phone.estimation import emission_loglik, pair_counts, sign_blocks, sweep_signs
from mh_phone.io import save_model
from mh_phone.model import fit_em
from mh_phone.params import Hyperparams, make_truth_params

from helpers import (full_fit_em, full_fit_gmm, full_fit_gmm_lda, full_pair_counts,
                     params_digest)

FITS = ("greedy", "viterbi", "gmm", "gmm-lda")

# (M, P, D): several blocks with a short last one; P = 1 with a last block of
# one sign (17 = 2 * 8 + 1); D = 1; fewer signs than one block
SHAPES = ((203, 25, 14), (17, 1, 14), (21, 5, 1), (5, 6, 14))


def _corpus(m, p, d):
    """Signs of frames spread over two decades, most of them unpadded, so
    that a table row from another BLAS grouping of rows shows in the
    objective's last bits (a padding row's table row does not move)."""
    rng = np.random.default_rng(m * p * d)
    lengths = rng.integers(p - p // 4, p + 1, size=m)
    features = rng.normal(size=(m, p, d)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(m, p, 1))
    features[np.arange(p) >= lengths[:, None]] = 0.0
    return Corpus.from_arrays(features, lengths, ["g"] * m, ["s"] * m, ["none"] * m)


def _fit(kind, corpus, reference, threads=1):
    """(params, labels or None, trace) of one fit: 6 iterations, 3 states."""
    common = dict(max_iters=6, tol=-1.0, seed=2)
    if kind in ("greedy", "viterbi"):
        fit = full_fit_em if reference else functools.partial(fit_em, threads=threads)
        params, labels, report = fit(corpus, 3, e_step=kind, **common)
        return params, labels, report.log_joint_trace
    if kind == "gmm":
        fit = full_fit_gmm if reference else functools.partial(fit_gmm, threads=threads)
        params, report = fit(corpus, 3, **common)
    else:
        fit = full_fit_gmm_lda if reference else functools.partial(fit_gmm_lda, threads=threads)
        params, report = fit(corpus, 3, 2, **common)
    return params, None, report.log_joint_trace


@functools.lru_cache(maxsize=None)
def _reference(kind, shape):
    return _fit(kind, _corpus(*shape), reference=True)


@pytest.mark.parametrize("kind", FITS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("block", [8, 16])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sweep_gives_the_whole_table_fit(monkeypatch, tmp_path, kind, shape, block, threads):
    monkeypatch.setattr(estimation, "SIGN_BLOCK", block)
    params, labels, trace = _fit(kind, _corpus(*shape), reference=False, threads=threads)
    want_params, want_labels, want_trace = _reference(kind, shape)
    assert params_digest(params) == params_digest(want_params)
    assert trace == want_trace
    if labels is not None:
        assert labels.tobytes() == want_labels.tobytes()
    for name, fitted in (("got.json", params), ("want.json", want_params)):
        save_model(tmp_path / name, fitted, Hyperparams())
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_more_threads_than_cores_at_a_short_switch_interval_give_the_same_fit(monkeypatch):
    # every worker writes its own slices of the shared arrays; a lost or
    # misplaced write would change the labels or the trace
    monkeypatch.setattr(estimation, "SIGN_BLOCK", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind in FITS:
            params, labels, trace = _fit(kind, _corpus(*SHAPES[0]), reference=False, threads=8)
            want_params, want_labels, want_trace = _reference(kind, SHAPES[0])
            assert params_digest(params) == params_digest(want_params) and trace == want_trace
            assert labels is None or labels.tobytes() == want_labels.tobytes()
    finally:
        sys.setswitchinterval(interval)


# A block starting off a multiple of 8 signs moves table rows by an ulp or so,
# which the fits above rarely show: blocks of 7 or 12 signs still pass them.
# This test fails for blocks of 1, 5 or 7 signs.
@pytest.mark.parametrize("block", [8, 16, 64])
def test_block_tables_are_rows_of_the_whole_table(monkeypatch, block):
    monkeypatch.setattr(estimation, "SIGN_BLOCK", block)
    corpus = _corpus(203, 25, 14)
    rng = np.random.default_rng(block)
    mu, sigma = rng.normal(size=(10, 14)), rng.uniform(0.1, 2.0, size=14)
    whole = emission_loglik(corpus.features, mu, sigma)
    got = np.empty_like(whole)

    def work(s):
        got[s] = emission_loglik(corpus.features[s], mu, sigma)

    sweep_signs(203, 25, work, threads=2)
    assert got.tobytes() == whole.tobytes()


def test_sign_blocks_cover_the_signs_in_order_without_a_lone_last_row(monkeypatch):
    monkeypatch.setattr(estimation, "SIGN_BLOCK", 8)
    for p in (1, 2, 25):
        for m in range(1, 40):
            blocks = sign_blocks(m, p)
            assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(m))
            assert all(s.start % 8 == 0 for s in blocks)
            assert m < 2 or all((s.stop - s.start) * p > 1 for s in blocks)


def test_a_failing_block_raises_from_the_sweep(monkeypatch):
    monkeypatch.setattr(estimation, "SIGN_BLOCK", 8)
    seen = []

    def work(s):
        seen.append(s.start)
        if s.start == 8:
            raise ValueError("block 8")

    with pytest.raises(ValueError, match="block 8"):
        sweep_signs(40, 3, work, threads=2)
    assert sorted(seen) == [0, 8, 16, 24, 32]  # the pool finished every block


@pytest.mark.parametrize("shape", [(50, 7), (5, 1), (3, 0)])
def test_pair_counts_in_row_blocks_count_every_pair(monkeypatch, shape):
    monkeypatch.setattr(estimation, "ROW_BLOCK", 16)
    rng = np.random.default_rng(shape[0])
    rows, cols = rng.integers(0, 4, size=shape), rng.integers(0, 3, size=shape)
    for r, c in ((rows, cols), (rows[:, :1], cols)):
        got = pair_counts(r, c, 4, 3)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, full_pair_counts(*np.broadcast_arrays(r, c), 4, 3))


# A fit holds the features, one (M, P) array or three of labels and picked
# emission terms, and a fixed block of signs' tables: less than one (M, P, N)
# table beside the features. Before the sweep a Viterbi fit held 3.0 tables
# and a gmm-lda fit 3.2 at this size.
@pytest.mark.parametrize("fit", [
    lambda corpus: fit_em(corpus, 10, max_iters=2, tol=-1.0, e_step="viterbi", seed=1),
    lambda corpus: fit_gmm_lda(corpus, 10, 10, max_iters=2, tol=-1.0, seed=1),
], ids=["viterbi", "gmm-lda"])
def test_a_fit_holds_less_than_one_emission_table(fit):
    corpus = synth_corpus(make_truth_params(10, n_features=14, seed=5), 2000, seed=6)[0]
    m, p, _ = corpus.dims
    fit(corpus)  # a first call imports what it needs
    tracemalloc.start()
    try:
        fit(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * p * 10 * 8

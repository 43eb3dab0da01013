"""Estimation primitives against closed forms and scipy oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import optimize, stats

from mh_phone import estimation, model
from mh_phone.corpus import Corpus, synth_corpus
from mh_phone.estimation import (LOG_SIGMA_HI, LOG_SIGMA_LO, SIGMA_INIT_FLOOR,
                                 block_scratch, carried_sum, dirichlet_logpdf,
                                 dirichlet_map, emission_loglik, gaussian_frames,
                                 golden_section_max, lognormal_logpdf,
                                 map_log_joint, map_means, map_sigma,
                                 markov_chain_sample, normal_logpdf, pair_counts,
                                 relative_change, row_blocks, safe_log, seed_emissions)
from mh_phone.model import emission_sigma, init_params, m_step
from mh_phone.params import Hyperparams, make_truth_params

import helpers
from helpers import (broadcast_emission_loglik, full_emission_loglik, full_emission_sigma,
                     full_gaussian_frames, full_init_seeds, full_seed_emissions, label_digest)


def test_golden_section_finds_quadratic_vertex():
    for vertex in (-2.0, 0.3, 4.7):
        got = golden_section_max(lambda t: -(t - vertex) ** 2, -8.0, 8.0)
        assert got == pytest.approx(vertex, abs=1e-7)


def test_golden_section_matches_scipy_on_skewed_objective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = rng.integers(2, 50)
        ssr = rng.uniform(0.01, 20.0)

        def obj(t):
            return -0.5 * n * t - 0.5 * ssr * math.exp(-t) - t

        got = golden_section_max(obj, LOG_SIGMA_LO, LOG_SIGMA_HI)
        res = optimize.minimize_scalar(lambda t: -obj(t), bounds=(LOG_SIGMA_LO, LOG_SIGMA_HI),
                                       method="bounded", options={"xatol": 1e-10})
        assert got == pytest.approx(res.x, abs=1e-6)


def test_golden_section_boundary_maximum():
    got = golden_section_max(lambda t: t, 0.0, 3.0)
    assert got == pytest.approx(3.0, abs=1e-7)


def test_dirichlet_map_flat_prior_is_plain_frequency():
    np.testing.assert_allclose(dirichlet_map([3.0, 1.0], 1.0), [0.75, 0.25])


def test_dirichlet_map_is_posterior_mode():
    # For counts >= 1 and alpha >= 1 the mode is interior, so it must agree
    # with a direct numerical maximization of the Dirichlet posterior density.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        counts = rng.integers(1, 12, size=n).astype(float)
        alpha = float(rng.uniform(1.0, 4.0))
        got = dirichlet_map(counts, alpha)

        def neg_log_post(free):
            p = np.append(free, 1.0 - free.sum())
            if np.any(p <= 0):
                return np.inf
            return -float(np.sum((counts + alpha - 1.0) * np.log(p)))

        x0 = np.full(n - 1, 1.0 / n)
        res = optimize.minimize(neg_log_post, x0, method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        best = np.append(res.x, 1.0 - res.x.sum())
        np.testing.assert_allclose(got, best, atol=1e-5)


def test_dirichlet_map_clips_below_one():
    np.testing.assert_allclose(dirichlet_map([0.0, 5.0], 0.5), [0.0, 1.0])


def test_dirichlet_map_uniform_fallback():
    np.testing.assert_allclose(dirichlet_map([0.0, 0.0, 0.0], 1.0),
                               [1 / 3, 1 / 3, 1 / 3])


def test_dirichlet_map_returns_simplex():
    rng = np.random.default_rng(3)
    for _ in range(25):
        counts = rng.integers(0, 9, size=rng.integers(2, 6)).astype(float)
        alpha = float(rng.uniform(0.2, 3.0))
        w = dirichlet_map(counts, alpha)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_normal_logpdf_matches_scipy():
    # Third argument is the variance, not the standard deviation.
    x = np.array([-1.3, 0.0, 2.4])
    got = normal_logpdf(x, 0.5, 2.25)
    want = stats.norm.logpdf(x, loc=0.5, scale=1.5)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_lognormal_logpdf_matches_scipy():
    x = np.array([0.1, 1.0, 7.5])
    for mu, sig in ((0.0, 1.0), (1.0, 10.0), (-0.5, 2.0)):
        got = lognormal_logpdf(x, mu, sig)
        want = stats.lognorm.logpdf(x, s=sig, scale=math.exp(mu))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_dirichlet_logpdf_matches_scipy():
    p = np.array([0.2, 0.5, 0.3])
    for alpha in (1.0, 2.5, 0.7):
        got = dirichlet_logpdf(p, alpha)
        want = stats.dirichlet.logpdf(p, np.full(3, alpha))
        assert got == pytest.approx(want, abs=1e-10)


def test_dirichlet_logpdf_flat_tolerates_zero_entries():
    assert dirichlet_logpdf([0.0, 1.0], 1.0) == pytest.approx(math.lgamma(2))
    assert dirichlet_logpdf([0.0, 1.0], 2.0) == -np.inf


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_map_log_joint_terms_match_scipy(alpha):
    hyper = Hyperparams(alpha=alpha, mu_mu=0.5, sigma_mu=3.0, mu_sigma=-0.2,
                        sigma_sigma=1.5)
    sigma = np.array([0.3, 1.7])
    mu = np.array([[0.1, -2.0], [1.4, 0.6], [3.0, -0.5]])
    weights = np.array([0.2, 0.5, 0.3])
    table = np.array([[0.6, 0.4], [0.1, 0.9]])
    picked = (np.array([-1.5, -0.25]), np.array([[0.5], [2.0]]))
    no_mu = mu[:0]  # no free prototype: the Normal prior adds exactly 0.0
    base = map_log_joint(hyper, no_mu, sigma, (), ())
    assert base == pytest.approx(
        stats.lognorm.logpdf(sigma, s=1.5, scale=math.exp(-0.2)).sum(), abs=1e-10)
    assert map_log_joint(hyper, no_mu, sigma, (weights,), ()) - base == pytest.approx(
        stats.dirichlet.logpdf(weights, np.full(3, alpha)), abs=1e-10)
    assert map_log_joint(hyper, no_mu, sigma, (table,), ()) - base == pytest.approx(
        sum(stats.dirichlet.logpdf(row, np.full(2, alpha)) for row in table), abs=1e-10)
    assert map_log_joint(hyper, mu, sigma, (), ()) - base == pytest.approx(
        stats.norm.logpdf(mu, loc=0.5, scale=3.0).sum(), abs=1e-10)
    assert map_log_joint(hyper, no_mu, sigma, (), picked) - base == pytest.approx(
        0.75, abs=1e-12)
    want = (map_log_joint(hyper, no_mu, sigma, (weights, table), ())
            + map_log_joint(hyper, mu, sigma, (), picked) - base)
    got = map_log_joint(hyper, mu, sigma, (weights, table), picked)
    assert got == pytest.approx(want, abs=1e-10)


def test_map_log_joint_zero_weight_is_minus_inf_unless_alpha_is_one():
    weights = np.array([0.0, 0.4, 0.6])
    mu, sigma = np.zeros((1, 2)), np.ones(2)
    assert map_log_joint(Hyperparams(alpha=2.0), mu, sigma, (weights,), ()) == -math.inf
    assert math.isfinite(map_log_joint(Hyperparams(alpha=1.0), mu, sigma, (weights,), ()))


def test_pair_counts_match_add_at():
    rng = np.random.default_rng(31)
    labels = rng.integers(0, 4, size=(30, 7))  # label 4 of 5 never occurs
    want = np.zeros((5, 5))
    np.add.at(want, (labels[:, :-1], labels[:, 1:]), 1.0)
    np.testing.assert_array_equal(pair_counts(labels[:, :-1], labels[:, 1:], 5, 5), want)
    topics = rng.integers(0, 3, size=30)
    want = np.zeros((3, 5))
    np.add.at(want, (np.repeat(topics, 7), labels.ravel()), 1.0)
    np.testing.assert_array_equal(pair_counts(topics[:, None], labels, 3, 5), want)
    one_frame = labels[:, :1]  # no transitions at all
    assert not pair_counts(one_frame[:, :-1], one_frame[:, 1:], 5, 5).any()


def test_emission_loglik_is_diagonal_gaussian_with_variance_entries():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(4, 3))
    mu = rng.normal(size=(2, 3))
    sigma = rng.uniform(0.2, 3.0, size=3)
    got = emission_loglik(frames, mu, sigma)
    assert got.shape == (4, 2)
    for n in range(2):
        want = stats.multivariate_normal.logpdf(frames, mean=mu[n],
                                                cov=np.diag(sigma))
        np.testing.assert_allclose(got[:, n], want, atol=1e-10)


def test_emission_loglik_broadcasts_over_leading_axes():
    rng = np.random.default_rng(6)
    frames = rng.normal(size=(2, 3, 4))
    mu = rng.normal(size=(5, 4))
    sigma = rng.uniform(0.5, 2.0, size=4)
    got = emission_loglik(frames, mu, sigma)
    assert got.shape == (2, 3, 5)
    np.testing.assert_allclose(got[1, 2], emission_loglik(frames[1, 2], mu, sigma))


def _assert_matches_broadcast_kernel(frames, mu, sigma):
    """The expanded kernel against the broadcast reference, for (F, D) frames.

    Stated tolerance: each entry within 2 (D + 2) ulps of
    |x|^2_w + |mu|^2_w + |log_norm| (w = 1/sigma), the size of the terms the
    expansion adds and cancels over D dimensions."""
    got = emission_loglik(frames, mu, sigma)
    want = broadcast_emission_loglik(frames, mu, sigma)
    w = 1.0 / sigma
    scale = ((frames * frames) @ w)[:, None] + (mu * mu) @ w
    scale += abs(np.sum(np.log(2.0 * np.pi * sigma)))
    tol = 2 * (len(sigma) + 2) * np.finfo(float).eps * scale
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol)
    return got, want


def test_emission_loglik_matches_broadcast_kernel_near_the_origin():
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(500, 14))
    mu = rng.normal(size=(10, 14))
    sigma = rng.uniform(0.05, 2.0, size=14)
    got, want = _assert_matches_broadcast_kernel(frames, mu, sigma)
    np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_emission_loglik_matches_broadcast_kernel_where_the_expansion_cancels(offset):
    # Frames a hair from their prototypes, far from the origin, at the
    # seeding floor of the variances: |x|^2_w is ~1e10 at offset 1e3 while
    # the Mahalanobis term is ~1.
    rng = np.random.default_rng(12)
    mu = offset + rng.normal(size=(6, 14))
    frames = mu[rng.integers(0, 6, size=300)] + rng.normal(0.0, 0.03, size=(300, 14))
    sigma = np.full(14, SIGMA_INIT_FLOOR)
    _assert_matches_broadcast_kernel(frames, mu, sigma)


def test_map_means_maximizes_posterior_per_dimension():
    rng = np.random.default_rng(9)
    data = rng.normal(loc=1.7, scale=0.6, size=(12, 2))
    sums = data.sum(axis=0, keepdims=True)
    counts = np.array([12.0])
    sigma = np.array([0.36, 1.44])
    mu_mu, sigma_mu = 0.5, 3.0
    got = map_means(sums, counts, sigma, mu_mu, sigma_mu)
    assert got.shape == (1, 2)
    for d in range(2):

        def neg_log_post(m, d=d):
            lik = np.sum((data[:, d] - m) ** 2) / (2.0 * sigma[d])
            prior = (m - mu_mu) ** 2 / (2.0 * sigma_mu ** 2)
            return lik + prior

        res = optimize.minimize_scalar(neg_log_post, bounds=(-10, 10), method="bounded",
                                       options={"xatol": 1e-12})
        assert got[0, d] == pytest.approx(res.x, abs=1e-6)


def test_map_means_empty_component_lands_on_prior_mean():
    got = map_means(np.zeros((2, 3)), np.array([0.0, 4.0]),
                    np.ones(3), -2.5, 10.0)
    np.testing.assert_allclose(got[0], -2.5)


def test_map_sigma_matches_grid_search():
    # Independent oracle: coarse grid over log-variance, then a fine grid
    # around the coarse winner.
    resid = np.array([0.3, -0.1, 0.25, -0.4])
    ssr = float(np.sum(resid ** 2))
    n = resid.size
    mu_s, sig_s = 1.0, 10.0
    got = map_sigma(np.array([ssr]), n, mu_s, sig_s)

    def log_post(t):
        return (-0.5 * n * t - 0.5 * ssr * np.exp(-t)
                - t - (t - mu_s) ** 2 / (2.0 * sig_s ** 2))

    coarse = np.linspace(LOG_SIGMA_LO, LOG_SIGMA_HI, 200001)
    t0 = coarse[np.argmax(log_post(coarse))]
    fine = np.linspace(t0 - 2e-3, t0 + 2e-3, 400001)
    t_best = fine[np.argmax(log_post(fine))]
    assert abs(math.log(got[0]) - t_best) < 1e-5


def test_map_sigma_handles_dimensions_independently():
    ssr = np.array([0.5, 4.0, 0.02])
    got = map_sigma(ssr, 10, 1.0, 10.0)
    for d in range(3):
        alone = map_sigma(ssr[d:d + 1], 10, 1.0, 10.0)
        assert got[d] == alone[0]
    assert got[1] > got[0] > got[2]


def test_markov_chain_sample_start_distribution():
    rng = np.random.default_rng(13)
    pi = np.array([0.2, 0.5, 0.3])
    trans = np.full((3, 3), 1 / 3)
    chains = markov_chain_sample(rng, pi, trans, 30000, 2)
    freq = np.bincount(chains[:, 0], minlength=3) / 30000
    se = np.sqrt(pi * (1 - pi) / 30000)
    assert np.all(np.abs(freq - pi) < 3 * se)


def test_markov_chain_sample_transition_frequencies():
    rng = np.random.default_rng(14)
    trans = np.array([[0.7, 0.3], [0.1, 0.9]])
    chains = markov_chain_sample(rng, np.array([1.0, 0.0]), trans, 2000, 60)
    prev, nxt = chains[:, :-1].ravel(), chains[:, 1:].ravel()
    for i in range(2):
        mask = prev == i
        p_hat = np.mean(nxt[mask] == 1)
        se = math.sqrt(trans[i, 1] * (1 - trans[i, 1]) / mask.sum())
        assert abs(p_hat - trans[i, 1]) < 3 * se


def test_markov_chain_sample_absorbing_state_stays():
    rng = np.random.default_rng(15)
    trans = np.array([[1.0, 0.0], [0.5, 0.5]])
    chains = markov_chain_sample(rng, np.array([0.0, 1.0]), trans, 200, 30)
    hit = chains == 0
    first = np.argmax(hit, axis=1)
    for c in range(200):
        if hit[c].any():
            assert np.all(chains[c, first[c]:] == 0)


def test_relative_change_cases():
    assert relative_change(1.5, 1.0) == pytest.approx(0.5)
    assert relative_change(-150.0, -100.0) == pytest.approx(0.5)
    assert relative_change(0.3, 0.1) == pytest.approx(0.2)
    assert relative_change(5.0, 5.0) == 0.0


def test_safe_log():
    out = safe_log([0.0, 1.0, math.e])
    assert out[0] == -np.inf
    assert out[1] == 0.0
    assert out[2] == pytest.approx(1.0)


def test_markov_chain_sample_draws_are_pinned():
    # Exact draws at a fixed seed, zero-probability entries included; any
    # change to how uniforms map to states changes the digest.
    pi = np.array([0.0, 0.5, 0.3, 0.2])
    trans = np.array([[1.0, 0.0, 0.0, 0.0], [0.1, 0.6, 0.3, 0.0],
                      [0.2, 0.0, 0.5, 0.3], [0.25, 0.25, 0.0, 0.5]])
    chains = markov_chain_sample(np.random.default_rng(7), pi, trans, 500, 30)
    assert label_digest(chains) == (
        "7fe6c985b8895f935319928e212b7fdedb165280f50a7fba67b7d5e2bec94fbb")


# Row-blocked kernels: with a small block, every row count around it gives
# the bits of the one-array formulas in helpers.py.
BLOCK = 16
ROW_COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK // 2)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(estimation, "ROW_BLOCK", BLOCK)


def _spread_rows(rng, shape):
    """Normal draws each scaled by up to six decades, so that a sum taken in
    another order shows in the last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_row_blocks_cover_the_rows_in_order_without_a_lone_last_row(small_blocks):
    for rows in range(0, 4 * BLOCK):
        blocks = row_blocks(rows, 14)
        assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(rows))
        assert all(s.stop - s.start <= BLOCK + 1 for s in blocks)
        assert rows < 2 or all(s.stop - s.start > 1 for s in blocks)
    # numpy sums a one-column array pairwise, so it is never split
    assert row_blocks(5 * BLOCK, 1) == [slice(0, 5 * BLOCK)]


@pytest.mark.parametrize("d", [1, 2, 14])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_sums_carried_over_row_blocks_keep_the_bits_of_one_array(small_blocks, rows, d):
    x = _spread_rows(np.random.default_rng(rows), (rows, d))
    blocks = row_blocks(rows, d)
    scratch = block_scratch(blocks, d, extra=1)
    total = None
    for s in blocks:
        scratch[1:1 + s.stop - s.start] = x[s]
        total = carried_sum(scratch, s.stop - s.start, total)
    assert _same_bits(total, x.sum(axis=0))


@pytest.mark.parametrize("d", [1, 14])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_gaussian_frames_keeps_the_bits_of_one_array(small_blocks, rows, d):
    rng = np.random.default_rng(rows)
    mu = _spread_rows(rng, (4, d))
    sigma = rng.uniform(0.01, 3.0, size=d)
    labels = rng.integers(0, 4, size=(rows, 3))
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = gaussian_frames(got_rng, mu, sigma, labels)
    assert _same_bits(got, full_gaussian_frames(want_rng, mu, sigma, labels))
    assert got.flags.owndata and got.flags.c_contiguous
    assert got_rng.random() == want_rng.random()  # the same draws were taken


# (M, P) shapes whose M * P rows are the row counts above; P > 1 has padding
SHAPES = ((1, 1), (5, 3), (8, 2), (17, 1), (11, 3), (10, 4))


@pytest.mark.parametrize("d", [1, 14])
@pytest.mark.parametrize("shape", SHAPES)
def test_seeding_keeps_the_bits_of_one_array(small_blocks, shape, d):
    m, p = shape
    rng = np.random.default_rng(m * p)
    lengths = rng.integers(1, p + 1, size=m)
    features = _spread_rows(rng, (m, p, d))
    features[np.arange(p) >= lengths[:, None]] = 0.0
    corpus = Corpus.from_arrays(features, lengths, ["g"] * m, ["s"] * m, ["none"] * m)
    k = min(3, int(lengths.sum()))
    params = init_params(k + 1, corpus, seed=m)
    protos, sigma = full_init_seeds(corpus, k, seed=m)
    assert _same_bits(params.mu[1:], protos) and _same_bits(params.sigma, sigma)
    # the mixtures seed from every row, padding included
    flat = features.reshape(-1, d)
    got = seed_emissions(np.random.default_rng(m), corpus.features, min(3, m * p))
    want = full_seed_emissions(np.random.default_rng(m), flat, min(3, m * p))
    assert all(_same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("d", [1, 14])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_emission_table_keeps_the_bits_of_one_array(small_blocks, rows, d):
    # several draws: a row's |x|^2_w from another BLAS path differs in about
    # half of them
    rng = np.random.default_rng(rows)
    for _ in range(8):
        frames = _spread_rows(rng, (rows, d))
        mu = _spread_rows(rng, (5, d))
        sigma = rng.uniform(0.01, 3.0, size=d)
        want = full_emission_loglik(frames, mu, sigma)
        assert _same_bits(emission_loglik(frames, mu, sigma), want)
        assert _same_bits(emission_loglik(frames.reshape(rows, 1, d), mu, sigma),
                          want.reshape(rows, 1, 5))


@pytest.mark.parametrize("d", [1, 14])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_emission_sigma_keeps_the_bits_of_one_array(small_blocks, monkeypatch, rows, d):
    # the sums of squares themselves: the sigma search rounds away most changes
    for module in (model, helpers):
        monkeypatch.setattr(module, "map_sigma", lambda sq_sums, *_: sq_sums)
    rng = np.random.default_rng(rows)
    frames = _spread_rows(rng, (rows, d))
    labels = rng.integers(0, 5, size=rows)
    mu = _spread_rows(rng, (5, d))
    hyper = Hyperparams()
    assert _same_bits(emission_sigma(frames, labels, mu, hyper),
                      full_emission_sigma(frames, labels, mu, hyper))


# Peak memory of the fit's layers, as a share of the features. Each holds the
# (F, N) emission table, or less, and one row block; before the row blocks
# each built (F, D) temporaries: 1.14 (init_params), 1.0 (m_step) and 1.43
# (emission_loglik) times the features.
GUARD_BLOCK = 1024


@pytest.fixture(scope="module")
def fit_inputs():
    corpus, labels = synth_corpus(make_truth_params(5, n_features=14, seed=5), 2000, seed=6)
    return corpus, labels, init_params(5, corpus, seed=1)


def _peak_over_features(fn, corpus):
    fn()  # a first call imports what it needs
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / corpus.features.nbytes


@pytest.mark.parametrize("layer", ["init_params", "m_step", "emission_loglik"])
def test_a_fit_layer_holds_the_table_and_one_block(monkeypatch, fit_inputs, layer):
    monkeypatch.setattr(estimation, "ROW_BLOCK", GUARD_BLOCK)
    corpus, labels, params = fit_inputs
    m, p, d = corpus.dims
    calls = {
        "init_params": lambda: init_params(5, corpus, seed=1),
        "m_step": lambda: m_step(corpus, labels, Hyperparams(), params),
        "emission_loglik": lambda: emission_loglik(corpus.features, params.mu, params.sigma),
    }
    table = m * p * 5 * 8
    block = GUARD_BLOCK * d * 8
    bound = (table + block) / corpus.features.nbytes + 0.02
    assert _peak_over_features(calls[layer], corpus) < bound

"""Sequence model: init, both E-steps, M-step, objective, EM loop, sampling."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize, stats

from mh_phone import model
from mh_phone.corpus import synth_corpus
from mh_phone.errors import InvariantViolation, NotEnoughData
from mh_phone.estimation import SIGMA_INIT_FLOOR, emission_loglik, map_sigma
from mh_phone.model import (e_step_greedy, e_step_viterbi, fit_em, init_params,
                            joint_path_score, log_joint, m_step, sample)
from mh_phone.params import Hyperparams, ModelParams, make_truth_params

from helpers import (align_states, corpus_from_features, emission_table, params_digest,
                     pinned_corpus, random_corpus, random_params, trace_digest)


# ---------------------------------------------------------------- init


def test_init_params_shapes_and_uniform_rows():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, 6, 10, 4)
    params = init_params(3, corpus, seed=1)
    assert params.mu.shape == (3, 4) and params.sigma.shape == (4,)
    np.testing.assert_allclose(params.pi, 1 / 3)
    np.testing.assert_allclose(params.trans, 1 / 3)
    assert not params.mu[0].any()


def test_init_params_prototypes_are_observed_frames():
    rng = np.random.default_rng(2)
    corpus = random_corpus(rng, 5, 8, 3)
    params = init_params(4, corpus, seed=7)
    mask = np.arange(8)[None, :] < corpus.true_lengths[:, None]
    data = corpus.features[mask]
    for row in params.mu[1:]:
        assert np.any(np.all(np.isclose(data, row, atol=0), axis=1))


def test_init_params_sigma_floor_on_constant_data():
    feats = np.full((3, 4, 2), 1.5)
    corpus = corpus_from_features(feats)
    params = init_params(2, corpus, seed=0)
    np.testing.assert_allclose(params.sigma, SIGMA_INIT_FLOOR)


def test_init_params_errors():
    rng = np.random.default_rng(3)
    corpus = corpus_from_features(rng.normal(size=(1, 1, 2)))
    with pytest.raises(NotEnoughData):
        init_params(5, corpus)
    with pytest.raises(InvariantViolation):
        init_params(1, random_corpus(rng, 4, 6, 4))


# ---------------------------------------------------------------- E-steps


def test_greedy_prior_breaks_emission_ties():
    # All prototypes sit at zero, so emissions are identical and the first
    # frame goes to the largest pi; afterwards uniform rows tie and argmax
    # falls back to the lowest state index.
    params = ModelParams(pi=[0.1, 0.2, 0.7], trans=np.full((3, 3), 1 / 3),
                         mu=np.zeros((3, 2)), sigma=[1.0, 1.0])
    corpus = corpus_from_features(np.ones((4, 5, 2)))
    labels = e_step_greedy(params, emission_table(params, corpus))
    assert np.all(labels[:, 0] == 2)
    assert not labels[:, 1:].any()


def test_greedy_recovers_prototype_of_exact_frames():
    rng = np.random.default_rng(4)
    params = ModelParams(pi=[0.25] * 4, trans=np.full((4, 4), 0.25),
                         mu=np.vstack([np.zeros(3), np.eye(3) * 5.0]),
                         sigma=np.full(3, 0.1))
    seq = rng.integers(1, 4, size=(3, 6))
    corpus = corpus_from_features(params.mu[seq])
    labels = e_step_greedy(params, emission_table(params, corpus))
    np.testing.assert_array_equal(labels, seq)


def _slow_greedy(params, frames):
    """Per-frame argmax with scipy densities, no shared code with the model."""
    m, p, _ = frames.shape
    out = np.empty((m, p), dtype=np.int64)
    cov = np.diag(params.sigma)
    for i in range(m):
        for f in range(p):
            scores = []
            for n2 in range(params.n_states):
                s = stats.multivariate_normal.logpdf(frames[i, f], params.mu[n2], cov)
                w = params.pi[n2] if f == 0 else params.trans[out[i, f - 1], n2]
                s += math.log(w) if w > 0 else -math.inf
                scores.append(s)
            out[i, f] = int(np.argmax(scores))
    return out


def test_greedy_matches_per_step_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        params = random_params(rng, n, d)
        corpus = corpus_from_features(rng.normal(size=(3, p, d)))
        got = e_step_greedy(params, emission_table(params, corpus))
        np.testing.assert_array_equal(got, _slow_greedy(params, corpus.features))


def _enumerate_best_path(params, frames):
    """Exhaustive max over all state paths for one sign; asserts a clear winner."""
    p = frames.shape[0]
    n = params.n_states
    cov = np.diag(params.sigma)
    loglik = np.stack([stats.multivariate_normal.logpdf(frames, params.mu[j], cov)
                       for j in range(n)], axis=1)
    best, best_score, second = None, -math.inf, -math.inf
    for path in itertools.product(range(n), repeat=p):
        score = math.log(params.pi[path[0]]) + loglik[0, path[0]]
        for f in range(1, p):
            score += math.log(params.trans[path[f - 1], path[f]]) + loglik[f, path[f]]
        if score > best_score:
            best, best_score, second = path, score, best_score
        elif score > second:
            second = score
    assert best_score - second > 1e-9
    return np.asarray(best)


def test_viterbi_matches_exhaustive_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(2, 5))
        params = random_params(rng, n, 2)
        frames = rng.normal(size=(1, p, 2))
        corpus = corpus_from_features(frames)
        got = e_step_viterbi(params, emission_table(params, corpus))[0]
        np.testing.assert_array_equal(got, _enumerate_best_path(params, frames[0]))


def test_viterbi_never_scores_below_greedy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = random_params(rng, 4, 3)
        corpus = corpus_from_features(rng.normal(size=(5, 8, 3)))
        table = emission_table(params, corpus)
        g = joint_path_score(params, e_step_greedy(params, table), table)
        v = joint_path_score(params, e_step_viterbi(params, table), table)
        assert v >= g - 1e-12


def test_viterbi_follows_deterministic_chain():
    # Flat emissions leave the categorical chain as the only signal; a
    # deterministic cycle must be traced exactly.
    n = 4
    trans = np.zeros((n, n))
    trans[0, 0] = 1.0
    trans[1, 2] = trans[2, 3] = trans[3, 1] = 1.0
    pi = np.zeros(n)
    pi[1] = 1.0
    params = ModelParams(pi=pi, trans=trans, mu=np.zeros((n, 2)), sigma=[1.0, 1.0])
    corpus = corpus_from_features(np.ones((2, 7, 2)))
    labels = e_step_viterbi(params, emission_table(params, corpus))
    want = np.tile([1, 2, 3, 1, 2, 3, 1], (2, 1))
    np.testing.assert_array_equal(labels, want)


# ---------------------------------------------------------------- M-step


def test_m_step_pi_is_first_frame_frequency():
    feats = np.random.default_rng(9).normal(size=(4, 3, 2))
    corpus = corpus_from_features(feats)
    prev = random_params(np.random.default_rng(10), 2, 2)
    labels = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1], [1, 1, 0]])
    out = m_step(corpus, labels, Hyperparams(), prev)
    np.testing.assert_allclose(out.pi, [0.25, 0.75])


def test_m_step_trans_matches_hand_pair_counts():
    rng = np.random.default_rng(11)
    n = 3
    feats = rng.normal(size=(5, 6, 2))
    corpus = corpus_from_features(feats)
    prev = random_params(rng, n, 2)
    labels = rng.integers(0, n, size=(5, 6))
    out = m_step(corpus, labels, Hyperparams(), prev)
    counts = np.zeros((n, n))
    for row in labels:
        for a, b in zip(row[:-1], row[1:]):
            counts[a, b] += 1
    for i in range(n):
        if counts[i].sum() > 0:
            np.testing.assert_allclose(out.trans[i], counts[i] / counts[i].sum())
        else:
            np.testing.assert_allclose(out.trans[i], 1 / n)


def test_m_step_unvisited_state_gets_uniform_row_and_prior_mean():
    feats = np.random.default_rng(12).normal(size=(2, 4, 3))
    corpus = corpus_from_features(feats)
    prev = random_params(np.random.default_rng(13), 3, 3)
    labels = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])  # state 2 unused
    hyper = Hyperparams(mu_mu=0.5)
    out = m_step(corpus, labels, hyper, prev)
    np.testing.assert_allclose(out.trans[2], 1 / 3)
    np.testing.assert_allclose(out.mu[2], 0.5)
    assert not out.mu[0].any()


def test_m_step_mu_maximizes_posterior_with_previous_sigma():
    rng = np.random.default_rng(14)
    feats = rng.normal(loc=2.0, size=(3, 5, 2))
    corpus = corpus_from_features(feats)
    prev = random_params(rng, 2, 2)
    labels = rng.integers(0, 2, size=(3, 5))
    labels[0, 0] = 1  # make sure state 1 is non-empty
    hyper = Hyperparams(mu_mu=0.3, sigma_mu=4.0)
    out = m_step(corpus, labels, hyper, prev)
    assigned = corpus.features.reshape(-1, 2)[labels.ravel() == 1]
    for d in range(2):

        def neg(mval, d=d):
            lik = np.sum((assigned[:, d] - mval) ** 2) / (2 * prev.sigma[d])
            return lik + (mval - 0.3) ** 2 / (2 * 4.0 ** 2)

        res = optimize.minimize_scalar(neg, bounds=(-15, 15), method="bounded",
                                       options={"xatol": 1e-12})
        assert out.mu[1, d] == pytest.approx(res.x, abs=1e-6)


def test_m_step_mu_depends_on_previous_sigma():
    rng = np.random.default_rng(15)
    feats = rng.normal(size=(2, 4, 2))
    corpus = corpus_from_features(feats)
    labels = rng.integers(0, 2, size=(2, 4))
    base = random_params(np.random.default_rng(16), 2, 2)
    wide = ModelParams(pi=base.pi, trans=base.trans, mu=base.mu,
                       sigma=base.sigma * 50.0)
    a = m_step(corpus, labels, Hyperparams(), base)
    b = m_step(corpus, labels, Hyperparams(), wide)
    assert not np.allclose(a.mu[1], b.mu[1])


def test_m_step_sigma_uses_residuals_against_new_means():
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(4, 6, 3))
    corpus = corpus_from_features(feats)
    prev = random_params(rng, 3, 3)
    labels = rng.integers(0, 3, size=(4, 6))
    hyper = Hyperparams()
    out = m_step(corpus, labels, hyper, prev)
    flat = corpus.features.reshape(-1, 3)
    resid = flat - out.mu[labels.ravel()]
    ssr = (resid ** 2).sum(axis=0)
    want = map_sigma(ssr, flat.shape[0], hyper.mu_sigma, hyper.sigma_sigma)
    np.testing.assert_array_equal(out.sigma, want)


def test_emission_means_sums_equal_an_add_at_reference(monkeypatch):
    # unsorted labels, prototype 2 unused and n above the largest label; the
    # magnitudes spread over 16 decades, so a change of summation order would show
    rng = np.random.default_rng(19)
    frames = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-8, 8, size=(200, 4))
    labels = rng.choice([0, 1, 3, 4], size=200)
    n = 7
    want = np.zeros((n, 4))
    np.add.at(want, labels, frames)
    monkeypatch.setattr(model, "map_means", lambda sums, *rest: sums)
    counts, sums = model.emission_means(frames, labels, n, np.ones(4), Hyperparams())
    assert sums.shape == (n, 4) and sums.tobytes() == want.tobytes()
    np.testing.assert_array_equal(counts, np.bincount(labels, minlength=n))


def test_m_step_rejects_mismatched_assignment():
    rng = np.random.default_rng(18)
    corpus = corpus_from_features(rng.normal(size=(2, 3, 2)))
    prev = random_params(rng, 2, 2)
    with pytest.raises(InvariantViolation):
        m_step(corpus, np.zeros((2, 4), dtype=int), Hyperparams(), prev)


@pytest.mark.parametrize("labels, message", [
    ([0, 1, 2], r"integer \(2, 3\) array, got int64 of shape \(3,\)"),
    ([[0, 1, 1], [2, 1, 0], [0, 0, 0]], r"got int64 of shape \(3, 3\)"),
    ([[0, 1, 2.7], [2, 1, 0]], r"integer \(2, 3\) array, got float64"),
    ([[True, False, True], [False, True, True]], "got bool"),
    ([[0, -1, 2], [2, 1, 0]], r"states in \[0, 3\)"),
    ([[0, 1, 3], [2, 1, 0]], r"states in \[0, 3\)"),
], ids=["1-D", "wrong-shape", "float", "bool", "negative", "equal-to-N"])
def test_m_step_rejects_labels_that_are_not_states_of_the_corpus(labels, message):
    # a label of N used to fail in numpy broadcasting, and 2.7 was cut to 2
    rng = np.random.default_rng(18)
    corpus = corpus_from_features(rng.normal(size=(2, 3, 2)))
    with pytest.raises(InvariantViolation, match=message):
        m_step(corpus, np.array(labels), Hyperparams(), random_params(rng, 3, 2))


def test_m_step_takes_any_integer_labels():
    # uint8 pair codes label * N + label would wrap at 20 states
    rng = np.random.default_rng(18)
    corpus = corpus_from_features(rng.normal(size=(4, 10, 2)))
    prev = random_params(rng, 20, 2)
    labels = rng.integers(0, 20, size=(4, 10))
    want = m_step(corpus, labels, Hyperparams(), prev)
    for dtype in (np.uint8, np.int32):
        got = m_step(corpus, labels.astype(dtype), Hyperparams(), prev)
        assert params_digest(got) == params_digest(want)


# ---------------------------------------------------------------- objective


def test_log_joint_matches_hand_expansion():
    params = ModelParams(pi=[0.3, 0.7], trans=[[0.6, 0.4], [0.2, 0.8]],
                         mu=[[0.0], [1.5]], sigma=[0.5])
    corpus = corpus_from_features(np.array([[[0.4], [1.2]]]))
    labels = np.array([[1, 1]])
    hyper = Hyperparams(alpha=2.0, mu_mu=0.0, sigma_mu=10.0,
                        mu_sigma=1.0, sigma_sigma=10.0)
    want = stats.lognorm.logpdf(0.5, s=10.0, scale=math.exp(1.0))
    want += stats.dirichlet.logpdf([0.3, 0.7], [2.0, 2.0])
    want += stats.dirichlet.logpdf([0.6, 0.4], [2.0, 2.0])
    want += stats.dirichlet.logpdf([0.2, 0.8], [2.0, 2.0])
    want += stats.norm.logpdf(1.5, 0.0, 10.0)
    want += math.log(0.7) + math.log(0.8)
    want += stats.norm.logpdf(0.4, 1.5, math.sqrt(0.5))
    want += stats.norm.logpdf(1.2, 1.5, math.sqrt(0.5))
    got = log_joint(params, labels, hyper, emission_table(params, corpus))
    assert got == pytest.approx(float(want), abs=1e-10)


def test_log_joint_sigma_prior_term_isolated():
    rng = np.random.default_rng(19)
    params = random_params(rng, 3, 2)
    corpus = corpus_from_features(rng.normal(size=(2, 4, 2)))
    labels = e_step_greedy(params, emission_table(params, corpus))
    h1 = Hyperparams(sigma_sigma=10.0)
    h2 = Hyperparams(sigma_sigma=20.0)
    table = emission_table(params, corpus)
    diff = log_joint(params, labels, h2, table) - log_joint(params, labels, h1, table)
    want = float((stats.lognorm.logpdf(params.sigma, s=20.0, scale=math.e)
                  - stats.lognorm.logpdf(params.sigma, s=10.0, scale=math.e)).sum())
    assert diff == pytest.approx(want, abs=1e-10)


def test_joint_path_score_additive_over_signs():
    rng = np.random.default_rng(20)
    params = random_params(rng, 3, 2)
    f1 = rng.normal(size=(2, 4, 2))
    f2 = rng.normal(size=(3, 4, 2))
    c1, c2 = corpus_from_features(f1), corpus_from_features(f2)
    both = corpus_from_features(np.concatenate([f1, f2]))
    a1 = e_step_greedy(params, emission_table(params, c1))
    a2 = e_step_greedy(params, emission_table(params, c2))
    ab = np.concatenate([a1, a2])
    total = joint_path_score(params, ab, emission_table(params, both))
    parts = (joint_path_score(params, a1, emission_table(params, c1))
             + joint_path_score(params, a2, emission_table(params, c2)))
    assert total == pytest.approx(parts, rel=1e-12)


# ---------------------------------------------------------------- EM loop


def test_fit_em_infinite_tol_runs_one_iteration():
    rng = np.random.default_rng(21)
    corpus = random_corpus(rng, 6, 5, 3)
    _, _, report = fit_em(corpus, 3, max_iters=50, tol=math.inf, seed=1)
    assert report.iterations == 1
    assert len(report.log_joint_trace) == 1
    assert not report.converged


def test_fit_em_viterbi_trace_is_monotone():
    rng = np.random.default_rng(22)
    corpus = random_corpus(rng, 20, 8, 3)
    _, _, report = fit_em(corpus, 4, max_iters=40, tol=0.0,
                          e_step="viterbi", seed=2)
    trace = np.asarray(report.log_joint_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_fit_em_deterministic_and_thread_invariant():
    rng = np.random.default_rng(23)
    corpus = random_corpus(rng, 24, 7, 3)
    a = fit_em(corpus, 3, max_iters=15, seed=5)
    b = fit_em(corpus, 3, max_iters=15, seed=5)
    c = fit_em(corpus, 3, max_iters=15, seed=5, threads=4)
    for other in (b, c):
        np.testing.assert_array_equal(a[0].pi, other[0].pi)
        np.testing.assert_array_equal(a[0].trans, other[0].trans)
        np.testing.assert_array_equal(a[0].mu, other[0].mu)
        np.testing.assert_array_equal(a[0].sigma, other[0].sigma)
        np.testing.assert_array_equal(a[1], other[1])
    assert a[2].log_joint_trace == b[2].log_joint_trace


@pytest.mark.parametrize("e_step", ["greedy", "viterbi"])
def test_fit_em_builds_one_emission_table_per_iteration(monkeypatch, e_step):
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return emission_loglik(*args)

    monkeypatch.setattr(model, "emission_loglik", counted)
    corpus = random_corpus(np.random.default_rng(24), 12, 6, 3)
    _, _, report = fit_em(corpus, 3, max_iters=5, tol=-1.0, e_step=e_step, seed=1, threads=2)
    assert report.iterations == 5
    assert calls == [corpus.features.shape] * 6  # one at initialisation


@pytest.mark.parametrize("e_step", ["greedy", "viterbi"])
def test_fit_em_objective_is_the_log_joint_of_the_fit(e_step):
    # the shared table must be the one at the params the M-step returned
    corpus = random_corpus(np.random.default_rng(25), 12, 6, 3)
    params, labels, report = fit_em(corpus, 3, max_iters=4, tol=-1.0, e_step=e_step, seed=2)
    assert report.log_joint_trace[-1] == log_joint(params, labels, Hyperparams(),
                                                   emission_table(params, corpus))


# The parameter digests of the fits were recorded with the broadcast emission
# kernel; the expanded kernel must reproduce every fitted array bit for bit,
# and the trace digests pin the objective's summation order as well.
_TRACE_DIGESTS = {"greedy": "b7a9ddd7ebcff3e8453c717f48f9fac947ca152f041e6fa444880c19e3ba887a",
                  "viterbi": "871bc33efe608458c797f9e8885ec4a49481deaa578939d0769606aef575f66d"}


@pytest.mark.parametrize("e_step, iterations, digest", [
    ("greedy", 18, "a884d806aacc77edb71d15946b4ebdd5e45d50c063a14b266594efa534d2ff48"),
    ("viterbi", 17, "e3d0ef681ccab0277f34e632532e0a34f5f3ab966f4371455afd381aa5ab849f"),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_em_parameters_are_pinned(e_step, iterations, digest, threads):
    params, _, report = fit_em(pinned_corpus(), 6, e_step=e_step, seed=5, threads=threads,
                               max_iters=30)
    assert report.converged and report.iterations == iterations
    assert params_digest(params) == digest
    assert trace_digest(report) == _TRACE_DIGESTS[e_step]


def test_fit_em_rejects_unknown_e_step():
    corpus = random_corpus(np.random.default_rng(24), 4, 5, 2)
    with pytest.raises(InvariantViolation):
        fit_em(corpus, 2, e_step="soft")


def test_fit_em_recovers_well_separated_truth():
    truth = make_truth_params(3, 6, seed=25, separation=2.0, sigma=0.05)
    corpus, _ = synth_corpus(truth, 300, 26)
    params, _, _ = fit_em(corpus, 3, max_iters=100, seed=27)
    perm = align_states(params.mu, truth.mu)
    assert np.max(np.abs(params.pi[perm] - truth.pi)) < 0.05
    assert np.max(np.abs(params.trans[np.ix_(perm, perm)] - truth.trans)) < 0.05
    assert np.max(np.abs(params.mu[perm] - truth.mu)) < 0.1


# ---------------------------------------------------------------- sampling


def test_sample_delegates_to_chain_sampler():
    params = random_params(np.random.default_rng(28), 3, 4)
    got = sample(params, 5, n_frames=8, seed=3)
    want, _ = synth_corpus(params, 5, 3, n_frames=8)
    np.testing.assert_array_equal(got.features, want.features)
    assert got.glosses[0].startswith("sample-")


def test_sample_single_absorbing_prototype():
    mu = np.zeros((3, 2))
    mu[2] = [4.0, -1.0]
    params = ModelParams(pi=[0.0, 0.0, 1.0], trans=np.eye(3), mu=mu,
                         sigma=[1e-6, 1e-6])
    corpus = sample(params, 10, n_frames=6, seed=4)
    assert np.all(corpus.true_lengths == 6)
    np.testing.assert_allclose(corpus.features, np.broadcast_to(mu[2], (10, 6, 2)),
                               atol=0.01)


def test_sample_immediate_end_state_is_all_zero():
    params = ModelParams(pi=[1.0, 0.0], trans=[[1.0, 0.0], [0.5, 0.5]],
                         mu=[[0.0], [2.0]], sigma=[0.01])
    corpus = sample(params, 7, n_frames=5, seed=5)
    assert not corpus.features.any()
    assert np.all(corpus.true_lengths == 1)

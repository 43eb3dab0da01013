"""Frame-mixture baselines: GMM and the topic-mixture GMM."""

import functools
import operator

import numpy as np
import pytest

from mh_phone import baselines, model
from mh_phone import corpus as corpus_module
from mh_phone.baselines import (GmmLdaParams, GmmParams, _lda_e_step, fit_gmm, fit_gmm_lda,
                                sample_gmm, sample_gmm_lda)
from mh_phone.errors import InvariantViolation, NotEnoughData
from mh_phone.estimation import dirichlet_map, emission_loglik
from mh_phone.model import emission_means, emission_sigma, m_step, sample
from mh_phone.corpus import synth_corpus
from mh_phone.params import Hyperparams, make_truth_params

from helpers import (LABEL_CASES, corpus_from_features, distributions, label_case,
                     label_digest, params_digest, pinned_corpus, random_params,
                     tensor_lda_e_step, trace_digest)


def _gmm_update(frames, labels, n_components, sigma_prev, hyper):
    """One GMM M-step (weights, mu, sigma) through the shared emission path."""
    counts, mu = emission_means(frames, labels, n_components, sigma_prev, hyper)
    sigma = emission_sigma(frames, labels, mu, hyper)
    return dirichlet_map(counts, hyper.alpha), mu, sigma


def _cluster_corpus(rng, centers, spread, m, p):
    centers = np.asarray(centers, dtype=float)
    picks = rng.integers(0, len(centers), size=(m, p))
    feats = centers[picks] + rng.normal(0.0, spread, size=(m, p, centers.shape[1]))
    return corpus_from_features(feats), picks


def test_gmm_params_validation():
    with pytest.raises(InvariantViolation):
        GmmParams(weights=[0.7, 0.7], mu=np.zeros((2, 2)), sigma=[1.0, 1.0])
    with pytest.raises(InvariantViolation):
        GmmParams(weights=[1.0], mu=np.zeros((1, 2)), sigma=[1.0, 0.0])
    p = GmmParams(weights=[0.4, 0.6], mu=np.ones((2, 3)), sigma=[1.0, 2.0, 3.0])
    assert p.n_components == 2
    back = GmmParams.from_dict(p.to_dict())
    assert np.array_equal(back.mu, p.mu)


def test_gmm_lda_params_validation():
    with pytest.raises(InvariantViolation):
        GmmLdaParams(topic_word=[[0.5, 0.5]], topic_freq=[0.5, 0.5],
                     doc_topic_prior=1.0, word_prior=1.0,
                     mu=np.zeros((2, 2)), sigma=[1.0, 1.0])
    with pytest.raises(InvariantViolation):
        GmmLdaParams(topic_word=[[0.5, 0.5]], topic_freq=[1.0],
                     doc_topic_prior=0.0, word_prior=1.0,
                     mu=np.zeros((2, 2)), sigma=[1.0, 1.0])
    p = GmmLdaParams(topic_word=[[0.2, 0.8], [0.9, 0.1]], topic_freq=[0.5, 0.5],
                     doc_topic_prior=1.0, word_prior=1.0,
                     mu=np.zeros((2, 3)), sigma=[1.0, 1.0, 1.0])
    assert p.n_topics == 2 and p.n_components == 2
    back = GmmLdaParams.from_dict(p.to_dict())
    assert np.array_equal(back.topic_word, p.topic_word)


def test_fit_gmm_recovers_two_separated_clusters():
    rng = np.random.default_rng(30)
    corpus, _ = _cluster_corpus(rng, [[-3.0, -3.0], [3.0, 3.0]], 0.3, 40, 50)
    params, report = fit_gmm(corpus, 2, seed=31)
    order = np.argsort(params.mu[:, 0])
    np.testing.assert_allclose(params.mu[order], [[-3, -3], [3, 3]], atol=0.1)
    np.testing.assert_allclose(params.weights, 0.5, atol=0.1)
    # sigma entries are variances: data noise has std 0.3
    np.testing.assert_allclose(params.sigma, 0.09, atol=0.03)
    assert report.converged


def test_fit_gmm_single_component_is_a_fixpoint():
    rng = np.random.default_rng(32)
    corpus = corpus_from_features(rng.normal(1.2, 0.5, size=(6, 10, 2)))
    params, _ = fit_gmm(corpus, 1, seed=33, tol=1e-13, max_iters=500)
    np.testing.assert_allclose(params.weights, [1.0])
    frames = corpus.features.reshape(-1, 2)
    labels = np.zeros(frames.shape[0], dtype=np.int64)
    w2, mu2, sigma2 = _gmm_update(frames, labels, 1, params.sigma, Hyperparams())
    np.testing.assert_allclose(mu2, params.mu, atol=1e-8)
    np.testing.assert_allclose(sigma2, params.sigma, atol=1e-8)
    np.testing.assert_allclose(w2, [1.0])


def test_fit_gmm_trace_is_monotone():
    rng = np.random.default_rng(34)
    corpus = corpus_from_features(rng.normal(size=(15, 8, 3)))
    _, report = fit_gmm(corpus, 3, seed=35, max_iters=60, tol=0.0)
    trace = np.asarray(report.log_joint_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_fit_gmm_deterministic():
    rng = np.random.default_rng(36)
    corpus = corpus_from_features(rng.normal(size=(10, 6, 2)))
    a, _ = fit_gmm(corpus, 3, seed=37, max_iters=20)
    b, _ = fit_gmm(corpus, 3, seed=37, max_iters=20)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_fit_gmm_not_enough_frames():
    corpus = corpus_from_features(np.ones((1, 2, 2)))
    with pytest.raises(NotEnoughData):
        fit_gmm(corpus, 5)


def test_gmm_update_agrees_with_sequence_m_step():
    # With state 0 unused and a zero prior mean, the sequence M-step and the
    # mixture update must produce identical mu and sigma from one code path
    # to the other.
    rng = np.random.default_rng(38)
    feats = rng.normal(size=(5, 6, 3))
    corpus = corpus_from_features(feats)
    labels = rng.integers(1, 3, size=(5, 6))
    prev = random_params(np.random.default_rng(39), 3, 3)
    hyper = Hyperparams()
    seq = m_step(corpus, labels, hyper, prev)
    w, mu, sigma = _gmm_update(feats.reshape(-1, 3), labels.ravel(), 3,
                               prev.sigma, hyper)
    np.testing.assert_array_equal(seq.mu, mu)
    np.testing.assert_array_equal(seq.sigma, sigma)


@pytest.mark.parametrize("iters", [1, 5])
def test_single_topic_lda_collapses_to_gmm(iters):
    rng = np.random.default_rng(40)
    corpus = corpus_from_features(rng.normal(size=(8, 7, 2)))
    gmm, gmm_rep = fit_gmm(corpus, 3, seed=41, max_iters=iters, tol=0.0)
    lda, lda_rep = fit_gmm_lda(corpus, 3, 1, seed=41, max_iters=iters, tol=0.0)
    np.testing.assert_array_equal(lda.mu, gmm.mu)
    np.testing.assert_array_equal(lda.sigma, gmm.sigma)
    np.testing.assert_array_equal(lda.topic_word[0], gmm.weights)
    np.testing.assert_array_equal(lda.topic_freq, [1.0])
    assert gmm_rep.iterations == lda_rep.iterations == iters


def test_fit_gmm_lda_recovers_disjoint_topic_groups():
    rng = np.random.default_rng(42)
    centers = np.array([[5.0, 5.0], [5.0, -5.0], [-5.0, 5.0], [-5.0, -5.0]])
    m, p = 40, 30
    topics_true = np.arange(m) % 2
    picks = np.where(topics_true[:, None] == 0,
                     rng.integers(0, 2, size=(m, p)),
                     rng.integers(2, 4, size=(m, p)))
    feats = centers[picks] + rng.normal(0.0, 0.2, size=(m, p, 2))
    corpus = corpus_from_features(feats)
    params, _ = fit_gmm_lda(corpus, 4, 2, seed=43)
    # match fitted components back to the generating centers
    comp_of = np.argmin(np.linalg.norm(params.mu[:, None] - centers[None], axis=2),
                        axis=1)
    group_mass = np.zeros((2, 2))
    for comp, true_c in enumerate(comp_of):
        group_mass[:, true_c // 2] += params.topic_word[:, comp]
    assert sorted(np.argmax(group_mass, axis=1)) == [0, 1]
    assert np.all(group_mass.max(axis=1) > 0.9)
    np.testing.assert_allclose(params.topic_freq, [0.5, 0.5], atol=0.05)


def test_fit_gmm_lda_rows_are_distributions():
    rng = np.random.default_rng(44)
    corpus = corpus_from_features(rng.normal(size=(9, 6, 2)))
    params, _ = fit_gmm_lda(corpus, 4, 3, seed=45, max_iters=25)
    np.testing.assert_allclose(params.topic_word.sum(axis=1), 1.0, atol=1e-12)
    assert params.topic_word.min() >= 0.0
    assert params.topic_freq.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_gmm_lda_trace_is_monotone_and_deterministic():
    rng = np.random.default_rng(46)
    corpus = corpus_from_features(rng.normal(size=(12, 8, 2)))
    a, rep = fit_gmm_lda(corpus, 3, 2, seed=47, max_iters=50, tol=0.0)
    b, _ = fit_gmm_lda(corpus, 3, 2, seed=47, max_iters=50, tol=0.0)
    trace = np.asarray(rep.log_joint_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    np.testing.assert_array_equal(a.topic_word, b.topic_word)
    np.testing.assert_array_equal(a.mu, b.mu)


@pytest.mark.parametrize("ties", [False, True])
def test_lda_e_step_per_topic_equals_tensor_form(ties):
    # zero word and topic probabilities give -inf scores; with ties, integer
    # emission scores and shared rows make argmax fall to the lower index.
    # Fewer topics than prototypes (T=4, N=5), then more (T=7, N=3).
    rng = np.random.default_rng(48)
    for n, tau in [(5, [0.2, 0.3, 0.0, 0.5]), (3, [0.1, 0.2, 0.0, 0.1, 0.3, 0.2, 0.1])]:
        tau = np.array(tau)
        loglik = rng.normal(size=(30, 9, n))
        psi = rng.dirichlet(np.ones(n), size=len(tau))
        psi[1, [0, n - 2]] = 0.0
        psi[1] /= psi[1].sum()
        if ties:
            loglik = np.round(loglik)
            psi[2] = psi[3]
        topics, labels = _lda_e_step(loglik, psi, tau)
        want_topics, want_labels = tensor_lda_e_step(loglik, psi, tau)
        np.testing.assert_array_equal(topics, want_topics)
        np.testing.assert_array_equal(labels, want_labels)


@pytest.mark.parametrize("n_topics", [1, 3, 12])
@pytest.mark.parametrize("case", LABEL_CASES)
def test_lda_e_step_gives_the_tensor_labels(case, n_topics):
    rng, table, rows = label_case(case, seed=n_topics)
    psi = distributions(rng, n_topics, table.shape[2], **rows)
    tau = distributions(rng, 1, n_topics, **rows)[0]
    topics, labels = _lda_e_step(table, psi, tau)
    want_topics, want_labels = tensor_lda_e_step(table, psi, tau)
    assert labels.dtype == np.int64 and labels.flags.c_contiguous
    assert topics.tobytes() == want_topics.tobytes()
    assert labels.tobytes() == want_labels.tobytes()


def test_lda_ties_go_to_the_lower_topic_and_state():
    uniform = np.full((3, 4), 0.25)
    topics, labels = _lda_e_step(np.zeros((5, 6, 4)), uniform, np.full(3, 1 / 3))
    assert not topics.any() and not labels.any()


# Nine frame scores that come to 237.83200000000005 added frame after
# frame, as the tensor form adds them, but to 237.83200000000002 summed
# pairwise, as numpy sums one contiguous run or one column. Topic 0 takes
# them and topic 1 their total in its first frame, so the topics tie and
# topic 0 wins, unless a pairwise sum puts it below topic 1.
IN_ORDER_FRAMES = [0.0, 0.001, 330.437, -130.316, 90.536, 0.446, -53.695, 0.058, 0.365]


@pytest.mark.parametrize("signs", [1, 3])
def test_lda_topic_scores_add_the_frames_in_order(signs):
    frames = np.array(IN_ORDER_FRAMES)
    total = functools.reduce(operator.add, IN_ORDER_FRAMES)
    assert frames.sum() < total and frames[0] + frames[1:].sum() < total
    table = np.zeros((signs, len(frames), 2))
    table[:, :, 0] = frames
    table[:, 0, 1] = total
    for e_step in (_lda_e_step, tensor_lda_e_step):
        topics, labels = e_step(table, np.eye(2), np.array([0.5, 0.5]))
        assert not topics.any() and not labels.any()


@pytest.mark.parametrize("fit", [
    lambda corpus: fit_gmm(corpus, 3, seed=1, max_iters=4, tol=-1.0),
    lambda corpus: fit_gmm_lda(corpus, 3, 2, seed=1, max_iters=4, tol=-1.0),
])
def test_mixture_fits_build_one_emission_table_per_iteration(monkeypatch, fit):
    calls = []

    def counted(*args):
        calls.append(args)
        return emission_loglik(*args)

    # gmm's tables and gmm-lda's first one come through the sequence model's sweep
    for owner in (baselines, model):
        monkeypatch.setattr(owner, "emission_loglik", counted)
    _, report = fit(corpus_from_features(np.random.default_rng(49).normal(size=(10, 6, 2))))
    assert report.iterations == 4
    assert len(calls) == 5  # one at initialisation


# Recorded with the broadcast emission kernel and the (M, P, T, N) GMM-LDA
# E-step; the current code must reproduce every fitted array bit for bit.
def test_mixture_fit_parameters_are_pinned():
    corpus = pinned_corpus()
    gmm, report = fit_gmm(corpus, 6, seed=5, max_iters=30)
    assert report.converged and report.iterations == 11
    assert params_digest(gmm) == (
        "7940230805a6e382bcbb650888fcce2e47a76b9c66873f88e38701211933e925")
    assert trace_digest(report) == (
        "4054a09ea8706d55dc31dde2cfbe03a93e8556a7a2ce2429c7253a1881660b70")
    lda, report = fit_gmm_lda(corpus, 6, 3, seed=5, max_iters=30)
    assert report.converged and report.iterations == 13
    assert params_digest(lda) == (
        "c8b8de5d7334ec942feba62d8b193c2e33b8bd6cf1dadf3d99c180f90954fedb")
    assert trace_digest(report) == (
        "3f6ba7c038fdf2d76520b70c4a0e7d2c737567512f642c2a3624402705ef0b95")


def test_sample_gmm_component_frequencies_and_moments():
    params = GmmParams(weights=[0.3, 0.7], mu=[[-2.0, 0.0], [2.0, 1.0]],
                       sigma=[0.25, 0.04])
    corpus, labels = sample_gmm(params, 200, n_frames=50, seed=48,
                                return_labels=True)
    n = labels.size
    freq = np.bincount(labels.ravel(), minlength=2) / n
    se = np.sqrt(params.weights * (1 - params.weights) / n)
    assert np.all(np.abs(freq - params.weights) < 3 * se)
    for k in range(2):
        sel = corpus.features.reshape(-1, 2)[labels.ravel() == k]
        np.testing.assert_allclose(sel.mean(axis=0), params.mu[k], atol=0.02)
        np.testing.assert_allclose(sel.std(axis=0), np.sqrt(params.sigma), atol=0.02)


def test_sample_gmm_shapes_glosses_and_determinism():
    params = GmmParams(weights=[1.0], mu=[[3.0]], sigma=[0.5])
    a = sample_gmm(params, 4, n_frames=6, seed=49)
    b = sample_gmm(params, 4, n_frames=6, seed=49)
    assert a.dims == (4, 6, 1)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.glosses[0] == "gmm-00000"
    assert np.all(a.true_lengths == 6)


def test_sample_gmm_lda_one_hot_topics_fix_the_prototype():
    params = GmmLdaParams(topic_word=[[1.0, 0.0], [0.0, 1.0]],
                          topic_freq=[0.4, 0.6], doc_topic_prior=1.0,
                          word_prior=1.0, mu=[[-4.0], [4.0]], sigma=[1e-8])
    corpus, topics, labels = sample_gmm_lda(params, 300, n_frames=10, seed=50,
                                            return_labels=True)
    np.testing.assert_array_equal(labels, np.broadcast_to(topics[:, None], (300, 10)))
    want = np.broadcast_to(np.where(topics[:, None] == 0, -4.0, 4.0), (300, 10))
    np.testing.assert_allclose(corpus.features[:, :, 0], want, atol=1e-3)
    se = np.sqrt(0.4 * 0.6 / 300)
    assert abs(np.mean(topics == 0) - 0.4) < 3 * se


def test_sample_gmm_lda_deterministic():
    params = GmmLdaParams(topic_word=[[0.5, 0.5]], topic_freq=[1.0],
                          doc_topic_prior=1.0, word_prior=1.0,
                          mu=[[0.0, 1.0], [1.0, 0.0]], sigma=[0.1, 0.1])
    a = sample_gmm_lda(params, 5, n_frames=4, seed=51)
    b = sample_gmm_lda(params, 5, n_frames=4, seed=51)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.glosses[0] == "gmm-lda-00000"


def test_mixture_sample_draws_are_pinned():
    # Exact component and topic draws at fixed seeds, zero-probability
    # entries included; any change to how uniforms map to categories changes
    # the digests.
    gmm = GmmParams(weights=[0.1, 0.0, 0.6, 0.3], mu=np.zeros((4, 2)), sigma=[1.0, 1.0])
    _, labels = sample_gmm(gmm, 50, n_frames=12, seed=8, return_labels=True)
    assert label_digest(labels) == (
        "0e10a71e97e8428d5a5250ab7fca4814bd0c987464154b6e33fc65c432426965")
    lda = GmmLdaParams(topic_word=[[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                                   [0.1, 0.2, 0.3, 0.4]],
                       topic_freq=[0.3, 0.0, 0.7], doc_topic_prior=1.0, word_prior=1.0,
                       mu=np.zeros((4, 2)), sigma=[1.0, 1.0])
    _, topics, labels = sample_gmm_lda(lda, 50, n_frames=12, seed=9, return_labels=True)
    assert label_digest(topics) == (
        "4bc8b4cf8c5d40a8ffae91415050ca503f58d73c71d45f38c72931f4313c4fb5")
    assert label_digest(labels) == (
        "886a04f3f590f966a6621addd30d9c33b2368c4c30534ecd9d06689710817466")


_GMM = GmmParams(weights=[1.0], mu=[[0.0]], sigma=[1.0])
_LDA = GmmLdaParams(topic_word=[[1.0]], topic_freq=[1.0], doc_topic_prior=1.0,
                    word_prior=1.0, mu=[[0.0]], sigma=[1.0])
_TRUTH = make_truth_params(2, 1)


@pytest.mark.parametrize("value, message", [
    (0, "must be at least 1, got 0"), (-1, "must be at least 1, got -1"),
    (2.7, "must be an integer, got float"), ("5", "must be an integer, got str"),
    (float("nan"), "must be an integer, got float"), (True, "must be an integer, got bool"),
], ids=["0", "-1", "2.7", "str", "nan", "bool"])
@pytest.mark.parametrize("sampler, size", [
    (lambda n, p: sample_gmm(_GMM, n, n_frames=p), "n_signs"),
    (lambda n, p: sample_gmm(_GMM, 3, n_frames=n), "n_frames"),
    (lambda n, p: sample_gmm_lda(_LDA, n, n_frames=p), "n_signs"),
    (lambda n, p: sample_gmm_lda(_LDA, 3, n_frames=n), "n_frames"),
    (lambda n, p: synth_corpus(_TRUTH, n, 0, n_frames=p), "m_signs"),
    (lambda n, p: synth_corpus(_TRUTH, 3, 0, n_frames=n), "n_frames"),
    (lambda n, p: sample(_TRUTH, n, n_frames=p), "n_signs"),
    (lambda n, p: sample(_TRUTH, 3, n_frames=n), "n_frames"),
], ids=["gmm-signs", "gmm-frames", "lda-signs", "lda-frames", "synth-signs", "synth-frames",
        "sample-signs", "sample-frames"])
def test_samplers_reject_sizes_below_one_before_drawing(monkeypatch, sampler, size, value,
                                                        message):
    def no_draw(*args):
        raise AssertionError("drew before checking the sizes")

    monkeypatch.setattr(baselines, "draw_categorical", no_draw)
    monkeypatch.setattr(corpus_module, "markov_chain_sample", no_draw)
    with pytest.raises(InvariantViolation, match=f"^{size} {message}$"):
        sampler(value, 4)


@pytest.mark.parametrize("fit, message", [
    (lambda c: fit_gmm(c, 0), "n_components must be at least 1, got 0"),
    (lambda c: fit_gmm_lda(c, 0, 2), "n_components must be at least 1, got 0"),
    (lambda c: fit_gmm_lda(c, 2, 0), "n_topics must be at least 1, got 0"),
], ids=["gmm-components", "lda-components", "lda-topics"])
def test_mixture_fits_need_a_component_and_a_topic(fit, message):
    corpus = corpus_from_features(np.ones((2, 3, 1)))
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        fit(corpus)

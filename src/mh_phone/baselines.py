"""Frame-mixture baselines: a GMM and a topic-mixture GMM (GMM-LDA).

Both treat frames as exchangeable, so neither can model the order of holds
within a sign; they exist as ablations of the sequence model. Padding rows
count as ordinary data, which lets a mixture component take on the role of
the end token. Seeding, the emission M-step and the hard-EM loop with its
stop rule (`estimation.hard_em`) are the sequence model's own code paths.

The GMM draws every frame's component independently. The GMM-LDA draws one
topic per sign and then frames i.i.d. from that topic's distribution over
prototypes (a mixture of unigrams).
"""

import numpy as np

from .corpus import Corpus, sampled_corpus
from .errors import InvariantViolation
from .estimation import map_sigma  # noqa: F401 -- kept importable from this module
from .estimation import (dirichlet_logpdf, dirichlet_map, draw_categorical,
                         emission_loglik, hard_em, lognormal_logpdf, normal_logpdf,
                         safe_log, seed_emissions)
from .model import emission_means, emission_sigma
from .params import GmmLdaParams, GmmParams, Hyperparams


def _gmm_log_joint(weights, mu, sigma, frames, labels, hyper):
    total = float(lognormal_logpdf(sigma, hyper.mu_sigma, hyper.sigma_sigma).sum())
    total += dirichlet_logpdf(weights, hyper.alpha)
    total += float(normal_logpdf(mu, hyper.mu_mu, hyper.sigma_mu ** 2).sum())
    total += float(safe_log(weights)[labels].sum())
    loglik = emission_loglik(frames, mu, sigma)
    total += float(np.take_along_axis(loglik, labels[:, None], axis=1).sum())
    return total


def fit_gmm(corpus: Corpus, n_components, hyper: Hyperparams | None = None,
            seed=0, *, max_iters=200, tol=1e-6):
    """Hard-EM MAP fit of a GMM over all frames. Returns (params, report).

    Each iteration labels every frame with its best component, then updates
    weights, mu (with the previous sigma) and sigma, in that order.
    """
    if hyper is None:
        hyper = Hyperparams()
    if n_components < 1:
        raise InvariantViolation("n_components must be at least 1")
    _, _, d = corpus.dims
    frames = corpus.features.reshape(-1, d)
    mu, sigma = seed_emissions(np.random.default_rng(seed), frames, n_components)
    weights = np.full(n_components, 1.0 / n_components)

    def step():
        nonlocal weights, mu, sigma
        scores = emission_loglik(frames, mu, sigma) + safe_log(weights)
        labels = np.argmax(scores, axis=1)
        counts, mu = emission_means(frames, labels, n_components, sigma, hyper)
        weights = dirichlet_map(counts, hyper.alpha)
        sigma = emission_sigma(frames, labels, mu, hyper)
        return _gmm_log_joint(weights, mu, sigma, frames, labels, hyper)

    report = hard_em(step, max_iters, tol)
    return GmmParams(weights=weights, mu=mu, sigma=sigma), report


def _lda_log_joint(psi, tau, mu, sigma, frames3, labels, topics, hyper):
    total = float(lognormal_logpdf(sigma, hyper.mu_sigma, hyper.sigma_sigma).sum())
    total += dirichlet_logpdf(tau, hyper.alpha)
    total += sum(dirichlet_logpdf(row, hyper.alpha) for row in psi)
    total += float(normal_logpdf(mu, hyper.mu_mu, hyper.sigma_mu ** 2).sum())
    total += float(safe_log(tau)[topics].sum())
    total += float(safe_log(psi)[topics[:, None], labels].sum())
    loglik = emission_loglik(frames3, mu, sigma)
    total += float(np.take_along_axis(loglik, labels[:, :, None], axis=2).sum())
    return total


def fit_gmm_lda(corpus: Corpus, n_components, n_topics, hyper: Hyperparams | None = None,
                seed=0, *, max_iters=200, tol=1e-6):
    """Hard-EM MAP fit of the topic-mixture GMM. Returns (params, report).

    The E-step is an exact joint argmax: given the topic, frames decouple, so
    each sign scores every topic by the sum of its frames' best prototype
    scores and keeps the winner. Initial topics are drawn at random (seeded)
    to break the symmetry of the uniform topic_word rows.
    """
    if hyper is None:
        hyper = Hyperparams()
    if n_components < 1 or n_topics < 1:
        raise InvariantViolation("n_components and n_topics must be at least 1")
    m, p, d = corpus.dims
    frames3 = corpus.features
    frames = frames3.reshape(-1, d)
    rng = np.random.default_rng(seed)
    mu, sigma = seed_emissions(rng, frames, n_components)

    labels = np.argmax(emission_loglik(frames3, mu, sigma), axis=2)
    topics = rng.integers(0, n_topics, size=m)
    psi = tau = None

    def step():
        nonlocal labels, topics, psi, tau, mu, sigma
        # M-step from the current hard assignment
        topic_counts = np.bincount(topics, minlength=n_topics).astype(float)
        tau = dirichlet_map(topic_counts, hyper.alpha)
        word_counts = np.zeros((n_topics, n_components))
        np.add.at(word_counts, (np.repeat(topics, p), labels.ravel()), 1.0)
        psi = dirichlet_map(word_counts, hyper.alpha)
        _, mu = emission_means(frames, labels.ravel(), n_components, sigma, hyper)
        sigma = emission_sigma(frames, labels.ravel(), mu, hyper)

        # E-step with the fresh parameters
        loglik = emission_loglik(frames3, mu, sigma)
        scored = loglik[:, :, None, :] + safe_log(psi)[None, None, :, :]
        best_frame = scored.max(axis=3)
        topics = np.argmax(best_frame.sum(axis=1) + safe_log(tau), axis=1)
        labels = np.argmax(scored[np.arange(m), :, topics, :], axis=2)

        return _lda_log_joint(psi, tau, mu, sigma, frames3, labels, topics, hyper)

    report = hard_em(step, max_iters, tol)
    params = GmmLdaParams(topic_word=psi, topic_freq=tau, doc_topic_prior=hyper.alpha,
                          word_prior=hyper.alpha, mu=mu, sigma=sigma)
    return params, report


def sample_gmm(params: GmmParams, n_signs, n_frames=25, seed=0, return_labels=False):
    """Draw signs whose frames are i.i.d. mixture draws (no temporal structure)."""
    rng = np.random.default_rng(seed)
    n_signs, n_frames = int(n_signs), int(n_frames)
    labels = draw_categorical(rng, params.weights, (n_signs, n_frames))
    noise = rng.standard_normal(labels.shape + (params.mu.shape[1],))
    feats = params.mu[labels] + noise * np.sqrt(params.sigma)
    corpus = sampled_corpus(feats, np.full(n_signs, n_frames), "gmm")
    if return_labels:
        return corpus, labels
    return corpus


def sample_gmm_lda(params: GmmLdaParams, n_signs, n_frames=25, seed=0,
                   return_labels=False):
    """Draw one topic per sign, then frames i.i.d. from that topic's prototypes."""
    rng = np.random.default_rng(seed)
    n_signs, n_frames = int(n_signs), int(n_frames)
    topics = draw_categorical(rng, params.topic_freq, (n_signs,))
    labels = draw_categorical(rng, params.topic_word[topics][:, None, :], (n_signs, n_frames))
    noise = rng.standard_normal(labels.shape + (params.mu.shape[1],))
    feats = params.mu[labels] + noise * np.sqrt(params.sigma)
    corpus = sampled_corpus(feats, np.full(n_signs, n_frames), "gmm-lda")
    if return_labels:
        return corpus, topics, labels
    return corpus

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

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, sampled_corpus
from .errors import InvariantViolation
from .estimation import map_sigma  # noqa: F401 -- kept importable from this module
from .estimation import (dirichlet_logpdf, dirichlet_map, draw_categorical,
                         emission_loglik, hard_em, lognormal_logpdf, normal_logpdf,
                         safe_log, seed_emissions)
from .model import emission_means, emission_sigma
from .params import Hyperparams, _check_stochastic, _frozen_array


@dataclass(frozen=True)
class GmmParams:
    """weights: (N,) mixing proportions; mu: (N, D) means; sigma: (D,) variances."""

    weights: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        weights = _frozen_array(self.weights)
        mu = _frozen_array(self.mu)
        sigma = _frozen_array(self.sigma)
        if weights.ndim != 1 or mu.ndim != 2 or mu.shape[0] != weights.shape[0]:
            raise InvariantViolation("weights and mu must agree on the component count")
        if sigma.shape != (mu.shape[1],):
            raise InvariantViolation("sigma must have one entry per feature")
        _check_stochastic(weights, "weights")
        if np.any(sigma <= 0):
            raise InvariantViolation("sigma must be strictly positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def to_dict(self):
        return {"weights": self.weights.tolist(), "mu": self.mu.tolist(),
                "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(weights=data["weights"], mu=data["mu"], sigma=data["sigma"])


@dataclass(frozen=True)
class GmmLdaParams:
    """Topic-mixture GMM parameters.

    topic_word: (T, N) rows are each topic's distribution over prototypes;
    topic_freq: (T,) learned frequency of topics across signs;
    doc_topic_prior / word_prior: Dirichlet concentrations used in fitting.
    """

    topic_word: np.ndarray
    topic_freq: np.ndarray
    doc_topic_prior: float
    word_prior: float
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        topic_word = _frozen_array(self.topic_word)
        topic_freq = _frozen_array(self.topic_freq)
        mu = _frozen_array(self.mu)
        sigma = _frozen_array(self.sigma)
        if topic_word.ndim != 2 or topic_freq.shape != (topic_word.shape[0],):
            raise InvariantViolation("topic_word and topic_freq must agree on the topic count")
        if mu.ndim != 2 or mu.shape[0] != topic_word.shape[1]:
            raise InvariantViolation("topic_word columns must match the prototype count")
        if sigma.shape != (mu.shape[1],):
            raise InvariantViolation("sigma must have one entry per feature")
        _check_stochastic(topic_freq, "topic_freq")
        for t in range(topic_word.shape[0]):
            _check_stochastic(topic_word[t], f"topic_word row {t}")
        if np.any(sigma <= 0):
            raise InvariantViolation("sigma must be strictly positive")
        if not (self.doc_topic_prior > 0 and self.word_prior > 0):
            raise InvariantViolation("Dirichlet concentrations must be positive")
        object.__setattr__(self, "topic_word", topic_word)
        object.__setattr__(self, "topic_freq", topic_freq)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_topics(self) -> int:
        return self.topic_word.shape[0]

    @property
    def n_components(self) -> int:
        return self.topic_word.shape[1]

    def to_dict(self):
        return {"topic_word": self.topic_word.tolist(),
                "topic_freq": self.topic_freq.tolist(),
                "doc_topic_prior": float(self.doc_topic_prior),
                "word_prior": float(self.word_prior),
                "mu": self.mu.tolist(), "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(topic_word=data["topic_word"], topic_freq=data["topic_freq"],
                   doc_topic_prior=data["doc_topic_prior"], word_prior=data["word_prior"],
                   mu=data["mu"], sigma=data["sigma"])


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


def _lda_log_joint(psi, tau, mu, sigma, frames3, labels, topics, hyper,
                   doc_prior, word_prior):
    total = float(lognormal_logpdf(sigma, hyper.mu_sigma, hyper.sigma_sigma).sum())
    total += dirichlet_logpdf(tau, doc_prior)
    total += sum(dirichlet_logpdf(row, word_prior) for row in psi)
    total += float(normal_logpdf(mu, hyper.mu_mu, hyper.sigma_mu ** 2).sum())
    total += float(safe_log(tau)[topics].sum())
    total += float(safe_log(psi)[topics[:, None], labels].sum())
    loglik = emission_loglik(frames3, mu, sigma)
    total += float(np.take_along_axis(loglik, labels[:, :, None], axis=2).sum())
    return total


def fit_gmm_lda(corpus: Corpus, n_components, n_topics, hyper: Hyperparams | None = None,
                seed=0, *, doc_topic_prior=None, word_prior=None,
                max_iters=200, tol=1e-6):
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
    doc_prior = hyper.alpha if doc_topic_prior is None else float(doc_topic_prior)
    word_pr = hyper.alpha if word_prior is None else float(word_prior)
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
        tau = dirichlet_map(topic_counts, doc_prior)
        word_counts = np.zeros((n_topics, n_components))
        np.add.at(word_counts, (np.repeat(topics, p), labels.ravel()), 1.0)
        psi = dirichlet_map(word_counts, word_pr)
        _, mu = emission_means(frames, labels.ravel(), n_components, sigma, hyper)
        sigma = emission_sigma(frames, labels.ravel(), mu, hyper)

        # E-step with the fresh parameters
        loglik = emission_loglik(frames3, mu, sigma)
        scored = loglik[:, :, None, :] + safe_log(psi)[None, None, :, :]
        best_frame = scored.max(axis=3)
        topics = np.argmax(best_frame.sum(axis=1) + safe_log(tau), axis=1)
        labels = np.argmax(scored[np.arange(m), :, topics, :], axis=2)

        return _lda_log_joint(psi, tau, mu, sigma, frames3, labels, topics,
                              hyper, doc_prior, word_pr)

    report = hard_em(step, max_iters, tol)
    params = GmmLdaParams(topic_word=psi, topic_freq=tau, doc_topic_prior=doc_prior,
                          word_prior=word_pr, mu=mu, sigma=sigma)
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

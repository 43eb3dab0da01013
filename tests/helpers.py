"""Shared builders for the test suite."""

import dataclasses
import hashlib
import json
from importlib import resources

import numpy as np
from scipy.optimize import linear_sum_assignment

from mh_phone.baselines import _lda_e_step
from mh_phone.corpus import Corpus, synth_corpus
from mh_phone.estimation import (SIGMA_INIT_FLOOR, dirichlet_map, emission_loglik, hard_em,
                                 map_log_joint, map_sigma, safe_log, seed_emissions)
from mh_phone.model import emission_means, emission_sigma, init_params, m_step
from mh_phone.params import GmmLdaParams, GmmParams, Hyperparams, ModelParams, make_truth_params


def file_bytes(directory):
    """The name and bytes of every file in `directory`."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def random_params(rng, n_states, n_features):
    """A valid random model: Dirichlet rows, spread means, positive variances."""
    pi = rng.dirichlet(np.ones(n_states))
    trans = rng.dirichlet(np.ones(n_states), size=n_states)
    mu = rng.normal(0.0, 2.0, size=(n_states, n_features))
    mu[0] = 0.0
    sigma = rng.uniform(0.05, 2.0, size=n_features)
    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=sigma)


def random_corpus(rng, m, p, d, pad=True):
    """Random corpus; with pad=True each sign gets a random true length,
    drawn just before its frames."""
    features, lengths = np.zeros((m, p, d)), []
    for i in range(m):
        lengths.append(int(rng.integers(1, p + 1)) if pad else p)
        features[i, :lengths[i]] = rng.normal(0.0, 1.0, size=(lengths[i], d))
    return Corpus.from_arrays(features, lengths, [f"r{i:03d}" for i in range(m)], [""] * m,
                              ["none"] * m)


def corpus_from_features(feats):
    """Wrap an (M, P, D) array of nonzero frames as full-length signs."""
    m, p, _ = np.shape(feats)
    return Corpus.from_arrays(feats, [p] * m, [f"w{i:03d}" for i in range(m)], [""] * m,
                              ["none"] * m)


def load_schema(kind):
    """The JSON schema shipped for an artifact kind: model, eval-report or
    interpret-report."""
    text = resources.files("mh_phone.schemas").joinpath(f"{kind}.schema.json")
    return json.loads(text.read_text("utf-8"))


def label_digest(labels):
    """SHA-256 of an integer label array, independent of platform int width."""
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()


def params_digest(params):
    """SHA-256 of every field of a parameter object as little-endian float64
    bytes, in declaration order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(params):
        h.update(np.ascontiguousarray(getattr(params, f.name), dtype="<f8").tobytes())
    return h.hexdigest()


def emission_table(params, corpus):
    """The (M, P, N) emission table of a corpus that the E-steps and the
    sequence model's objective read."""
    return emission_loglik(corpus.features, params.mu, params.sigma)


def trace_digest(report):
    """SHA-256 of a fit report's objective trace as little-endian float64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(report.log_joint_trace, dtype="<f8").tobytes()).hexdigest()


def pinned_corpus():
    """A small synthetic corpus with overlapping prototypes (80 signs x 12
    frames, 6 states, D=5), the input of the pinned-fit digests."""
    truth = make_truth_params(6, n_features=5, seed=3, separation=1.0, sigma=0.3)
    return synth_corpus(truth, 80, seed=4, n_frames=12)[0]


def broadcast_emission_loglik(frames, mu, sigma):
    """Reference emission table: the diagonal-Gaussian log density from the
    (..., N, D) broadcast difference, which is exact but memory-hungry."""
    x = np.asarray(frames, dtype=float)
    diff = x[..., None, :] - mu
    maha = np.sum(diff * diff / sigma, axis=-1)
    log_norm = np.sum(np.log(2.0 * np.pi * sigma))
    return -0.5 * (log_norm + maha)


def raw_frame(head=(0.0, 0.0), rsh=(1.0, 0.0), lsh=(-1.0, 0.0), relb=(2.0, 1.0),
              lelb=(-2.0, 1.0), rwr=(3.0, 2.0), lwr=(-3.0, 2.0)):
    return {"head": head, "right_shoulder": rsh, "left_shoulder": lsh,
            "right_elbow": relb, "left_elbow": lelb,
            "right_wrist": rwr, "left_wrist": lwr}


def align_states(fit_mu, true_mu):
    """Index array mapping truth order to fitted states by matching mu rows.

    State 0 maps to itself (both prototypes are pinned at zero); the rest are
    matched by minimum total Euclidean distance.
    """
    cost = np.linalg.norm(fit_mu[1:, None, :] - true_mu[None, 1:, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.zeros(fit_mu.shape[0], dtype=int)
    for r, c in zip(rows, cols):
        perm[c + 1] = r + 1
    return perm


# The one-array formulas that the row-blocked kernels replaced, kept verbatim
# as references: each kernel must give their bits for every row count.

def full_gaussian_frames(rng, mu, sigma, labels):
    """`estimation.gaussian_frames` as one array expression."""
    return mu[labels] + rng.standard_normal(labels.shape + mu.shape[1:]) * np.sqrt(sigma)


def full_seed_emissions(rng, data, k):
    """`estimation.seed_emissions` over an (F, D) array of data frames."""
    chosen = [int(rng.integers(len(data)))]
    d2 = ((data - data[chosen[0]]) ** 2).sum(axis=1)
    d2[chosen[0]] = -1.0
    for _ in range(k - 1):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((data - data[nxt]) ** 2).sum(axis=1))
        d2[nxt] = -1.0
    return data[chosen], np.maximum(data.std(axis=0), SIGMA_INIT_FLOOR)


def full_init_seeds(corpus, k, seed):
    """`seed_emissions` as `model.init_params` called it: over a copy of
    every non-padding frame."""
    _, p, _ = corpus.dims
    mask = np.arange(p)[None, :] < corpus.true_lengths[:, None]
    return full_seed_emissions(np.random.default_rng(seed), corpus.features[mask], k)


def full_emission_loglik(frames, mu, sigma):
    """`estimation.emission_loglik` with |x|^2_w over all frames at once."""
    x = np.asarray(frames, dtype=float)
    mu = np.asarray(mu, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    out = flat @ (mu * w).T
    out *= -2.0
    out += ((flat * flat) @ w)[:, None]
    out += (mu * mu) @ w
    out += np.sum(np.log(2.0 * np.pi * sigma))
    out *= -0.5
    return out.reshape(x.shape[:-1] + mu.shape[:1])


def full_emission_sigma(frames, labels, mu, hyper):
    """`model.emission_sigma` with one (F, D) array of squared residuals."""
    residuals = mu[labels]
    np.subtract(frames, residuals, out=residuals)
    residuals *= residuals
    return map_sigma(residuals.sum(axis=0), frames.shape[0], hyper.mu_sigma, hyper.sigma_sigma)


def float_families(rng, n):
    """n finite float64 values of each family a float-to-text writer must
    spell right, by name: Gaussian, Gaussian scaled by 10^-25 ... 10^25,
    rounded to 0-16 decimals, whole numbers up to 2^53, dyadic fractions,
    short decimals, random bit patterns, and the doubles beside powers of
    ten."""
    gaussian = rng.normal(size=n)
    decimals = 10.0 ** rng.integers(0, 17, size=n)
    bits = rng.integers(0, 2 ** 64, size=2 * n, dtype=np.uint64).view(np.float64)
    powers = 10.0 ** rng.integers(-8, 20, size=n)
    return {
        "gaussian": gaussian,
        "scaled": gaussian * 10.0 ** rng.integers(-25, 26, size=n),
        "rounded": np.rint(rng.normal(0.0, 100.0, size=n) * decimals) / decimals,
        "whole": rng.integers(-2 ** 53, 2 ** 53, size=n, endpoint=True).astype(np.float64),
        "dyadic": rng.integers(-2 ** 20, 2 ** 20, size=n) / 2.0 ** rng.integers(0, 60, size=n),
        "short": rng.integers(-10 ** 6, 10 ** 6, size=n) / 10.0 ** rng.integers(0, 12, size=n),
        "bits": bits[np.isfinite(bits)][:n],
        "beside-powers-of-ten": np.nextafter(powers, np.where(rng.random(n) < 0.5, 0.0, np.inf)),
    }


def full_pair_counts(rows, cols, n_rows, n_cols):
    """`estimation.pair_counts` as one bincount over every pair."""
    flat = (rows * n_cols + cols).ravel()
    return np.bincount(flat, minlength=n_rows * n_cols).reshape(n_rows, n_cols)


# The fitters as they were before the sign-block sweep: each iteration builds
# the (M, P, N) emission table of the whole corpus, which the objective of
# that iteration and the E-step of the next one read. The sweep must give
# their labels, parameters and traces bit for bit.

def full_greedy_labels(params, loglik):
    """The greedy E-step's labels from the whole table."""
    m, p, _ = loglik.shape
    log_pi = safe_log(params.pi)
    log_t = safe_log(params.trans)
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, 0] = np.argmax(loglik[:, 0] + log_pi, axis=1)
    for f in range(1, p):
        labels[:, f] = np.argmax(loglik[:, f] + log_t[labels[:, f - 1]], axis=1)
    return labels


def full_viterbi_labels(params, loglik):
    """The Viterbi E-step's labels from the whole table, with an int64 back
    table and the argmax over the middle axis of (M, previous, next)."""
    m, p, n = loglik.shape
    log_t = safe_log(params.trans)
    back = np.empty((m, p, n), dtype=np.int64)
    alpha = safe_log(params.pi) + loglik[:, 0]
    for f in range(1, p):
        cand = alpha[:, :, None] + log_t[None, :, :]
        best_prev = np.argmax(cand, axis=1)
        back[:, f] = best_prev
        alpha = np.take_along_axis(cand, best_prev[:, None, :], axis=1)[:, 0, :] + loglik[:, f]
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, -1] = np.argmax(alpha, axis=1)
    rows = np.arange(m)
    for f in range(p - 1, 0, -1):
        labels[:, f - 1] = back[rows, f, labels[:, f]]
    return labels


def full_fit_em(corpus, n_states, hyper=Hyperparams(), *, max_iters, tol, e_step, seed):
    """`model.fit_em` over whole tables."""
    label_fn = {"greedy": full_greedy_labels, "viterbi": full_viterbi_labels}[e_step]
    params = init_params(n_states, corpus, seed=seed)
    labels = None
    loglik = emission_loglik(corpus.features, params.mu, params.sigma)

    def step(last):
        nonlocal params, labels, loglik
        labels = label_fn(params, loglik)
        params = m_step(corpus, labels, hyper, params)
        loglik = emission_loglik(corpus.features, params.mu, params.sigma)
        emission = np.take_along_axis(loglik, labels[:, :, None], axis=2).sum()
        categorical = safe_log(params.pi)[labels[:, 0]].sum()
        categorical += safe_log(params.trans)[labels[:, :-1], labels[:, 1:]].sum()
        return map_log_joint(hyper, params.mu[1:], params.sigma, (params.pi, params.trans),
                             (float(emission + categorical),))

    report = hard_em(step, max_iters, tol)
    return params, labels, report


def full_fit_gmm(corpus, n_components, hyper=Hyperparams(), *, max_iters, tol, seed):
    """`baselines.fit_gmm` over whole (F, N) tables."""
    frames = corpus.features.reshape(-1, corpus.dims[2])
    mu, sigma = seed_emissions(np.random.default_rng(seed), frames, n_components)
    weights = np.full(n_components, 1.0 / n_components)
    loglik = emission_loglik(frames, mu, sigma)

    def step(last):
        nonlocal weights, mu, sigma, loglik
        labels = np.argmax(loglik + safe_log(weights), axis=1)
        counts, mu = emission_means(frames, labels, n_components, sigma, hyper)
        weights = dirichlet_map(counts, hyper.alpha)
        sigma = emission_sigma(frames, labels, mu, hyper)
        loglik = emission_loglik(frames, mu, sigma)
        return map_log_joint(hyper, mu, sigma, (weights,),
                             (safe_log(weights)[labels],
                              np.take_along_axis(loglik, labels[:, None], axis=1)))

    report = hard_em(step, max_iters, tol)
    return GmmParams(weights=weights, mu=mu, sigma=sigma), report


def full_fit_gmm_lda(corpus, n_components, n_topics, hyper=Hyperparams(), *, max_iters, tol,
                     seed):
    """`baselines.fit_gmm_lda` over whole tables, with `_lda_e_step` reading
    the whole table."""
    m, _, d = corpus.dims
    frames = corpus.features.reshape(-1, d)
    rng = np.random.default_rng(seed)
    mu, sigma = seed_emissions(rng, frames, n_components)
    labels = np.argmax(emission_loglik(corpus.features, mu, sigma), axis=2)
    topics = rng.integers(0, n_topics, size=m)
    psi = tau = None

    def step(last):
        nonlocal labels, topics, psi, tau, mu, sigma
        tau = dirichlet_map(np.bincount(topics, minlength=n_topics).astype(float), hyper.alpha)
        psi = dirichlet_map(full_pair_counts(topics[:, None], labels, n_topics, n_components),
                            hyper.alpha)
        _, mu = emission_means(frames, labels.ravel(), n_components, sigma, hyper)
        sigma = emission_sigma(frames, labels.ravel(), mu, hyper)
        loglik = emission_loglik(corpus.features, mu, sigma)
        topics, labels = _lda_e_step(loglik, psi, tau)
        return map_log_joint(hyper, mu, sigma, (tau, psi),
                             (safe_log(tau)[topics], safe_log(psi)[topics[:, None], labels],
                              np.take_along_axis(loglik, labels[:, :, None], axis=2)))

    report = hard_em(step, max_iters, tol)
    params = GmmLdaParams(topic_word=psi, topic_freq=tau, doc_topic_prior=hyper.alpha,
                          word_prior=hyper.alpha, mu=mu, sigma=sigma)
    return params, report

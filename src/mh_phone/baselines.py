"""Frame-mixture baselines: a GMM and a topic-mixture GMM (GMM-LDA).

Both treat frames as exchangeable, so neither can model the order of holds
within a sign; they exist as ablations of the sequence model. Padding rows
count as ordinary data, which lets a mixture component take on the role of
the end token. Seeding, the emission M-step and the hard-EM loop with its
stop rule (`estimation.hard_em`) are the sequence model's own code paths.

The GMM draws every frame's component independently. The GMM-LDA draws one
topic per sign and then frames i.i.d. from that topic's distribution over
prototypes (a mixture of unigrams). Its exact E-step runs state-major,
as the sequence model's Viterbi E-step does: over a contiguous (N, P, M)
copy of each sign block's table, so each step of its loop over the N
prototypes is one numpy operation over every frame of every sign.
"""

import numpy as np

from .corpus import DEFAULT_FRAMES, Corpus, sampled_corpus
from .estimation import map_sigma  # noqa: F401 -- bench/tracer.py patches baselines.map_sigma
from .estimation import (dirichlet_map, draw_categorical, emission_loglik, gaussian_frames,
                         hard_em, map_log_joint, pair_counts, picked_terms, running_max,
                         safe_log, seed_emissions, sweep_signs)
from .model import emission_means, emission_sigma, emission_sweep
from .params import GmmLdaParams, GmmParams, Hyperparams, check_sizes


def fit_gmm(corpus: Corpus, n_components, hyper: Hyperparams = Hyperparams(),
            seed=0, *, max_iters=200, tol=1e-6, threads=1):
    """Hard-EM MAP fit of a GMM over all frames. Returns (params, report).

    Each iteration labels every frame with its best component, then updates
    weights, mu (with the previous sigma) and sigma, in that order. As in
    `model.fit_em`, one `model.emission_sweep` on `threads` worker threads
    after seeding and after each M-step takes each block's emission table
    once, for the objective's terms and the next labels, which overwrite
    the current ones in place (none on the last allowed iteration).
    """
    n_components, max_iters, threads = check_sizes(n_components=n_components,
                                                    max_iters=max_iters, threads=threads)
    m, p, d = corpus.dims
    features = corpus.features
    frames = features.reshape(-1, d)
    mu, sigma = seed_emissions(np.random.default_rng(seed), frames, n_components)
    weights = np.full(n_components, 1.0 / n_components)
    labels = np.empty((m, p), dtype=np.int64)

    def label_fn(table):
        """Each frame's best component under the current weights."""
        table += safe_log(weights)
        return np.argmax(table, axis=2)

    emission_sweep(features, mu, sigma, threads, label_fn=label_fn, out=labels)

    def step(last):
        nonlocal weights, mu, sigma
        flat_labels = labels.reshape(-1)
        counts, mu = emission_means(frames, flat_labels, n_components, sigma, hyper)
        weights = dirichlet_map(counts, hyper.alpha)
        sigma = emission_sigma(frames, flat_labels, mu, hyper)
        weight_terms = safe_log(weights)[flat_labels]  # before the sweep relabels
        picked = emission_sweep(features, mu, sigma, threads, labels=labels, label_fn=label_fn,
                                out=None if last else labels)
        return map_log_joint(hyper, mu, sigma, (weights,), (weight_terms, picked))

    report = hard_em(step, max_iters, tol)
    return GmmParams(weights=weights, mu=mu, sigma=sigma), report


def _lda_e_step(loglik, psi, tau):
    """Exact joint argmax (topics (M,), labels (M, P)) from the (M, P, N)
    emission table, with the bits of the (M, P, T, N) tensor form.

    It runs state-major, over a contiguous (N, P, M) copy of the table.
    Each topic's best prototype score per frame is a `running_max` over
    the N prototypes of (P, M) arrays, summed over the frames in order; the
    frame labels are the same running argmax under each sign's topic. So
    every step is a whole-array numpy operation, no reduction runs along
    the short N axis, and no array beyond the copy is larger than (P, M).
    Where a frame's scores hold a NaN, its label is numpy's argmax, which
    takes the first NaN."""
    log_psi = safe_log(psi)
    n_topics, n = log_psi.shape
    cols = np.ascontiguousarray(loglik.transpose(2, 1, 0))  # [state, frame, sign]
    best = np.empty(cols.shape[1:])
    scores = np.empty((cols.shape[2], n_topics))
    for t, row in enumerate(log_psi):
        running_max(lambda k, out: np.add(cols[k], row[k], out=out), n, best)
        scores[:, t] = _frame_sums(best)
    topics = np.argmax(scores + safe_log(tau), axis=1)

    word = np.ascontiguousarray(log_psi[topics].T)  # [state, sign]

    def candidate(k, out):
        np.add(cols[k], word[k], out=out)

    labels = np.empty(best.shape, dtype=np.int64)
    running_max(candidate, n, best, labels)
    if np.isnan(best).any():
        running_max(candidate, n, best, labels, nan_first=True)
    return topics, np.ascontiguousarray(labels.T)


def _frame_sums(best):
    """The sums over the frames of a (P, M) array, added frame after frame
    as the tensor form's sum over its (M, P, T) axis 1 adds them. numpy
    adds the rows of a C-order array in order, but sums a single column
    pairwise, so one sign's column is accumulated instead."""
    if best.shape[1] == 1:
        return np.add.accumulate(best[:, 0])[-1:]
    return best.sum(axis=0)


def fit_gmm_lda(corpus: Corpus, n_components, n_topics, hyper: Hyperparams = Hyperparams(),
                seed=0, *, max_iters=200, tol=1e-6, threads=1):
    """Hard-EM MAP fit of the topic-mixture GMM. Returns (params, report).

    The E-step is an exact joint argmax: given the topic, frames decouple, so
    each sign scores every topic by the sum of its frames' best prototype
    scores and keeps the winner (`_lda_e_step`). Initial topics are drawn at
    random (seeded) to break the symmetry of the uniform topic_word rows.
    Each E-step is one sweep over sign blocks on `threads` worker threads,
    which takes each block's emission table once, for the new labels and
    the objective's terms of them.
    """
    n_components, n_topics, max_iters, threads = check_sizes(
        n_components=n_components, n_topics=n_topics, max_iters=max_iters, threads=threads)
    m, p, d = corpus.dims
    features = corpus.features
    frames = features.reshape(-1, d)
    rng = np.random.default_rng(seed)
    mu, sigma = seed_emissions(rng, frames, n_components)

    labels = np.empty((m, p), dtype=np.int64)
    emission_sweep(features, mu, sigma, threads, label_fn=lambda table: np.argmax(table, axis=2),
                   out=labels)
    topics = rng.integers(0, n_topics, size=m)
    psi = tau = None

    def step(last):
        nonlocal psi, tau, mu, sigma
        # M-step from the current hard assignment
        topic_counts = np.bincount(topics, minlength=n_topics).astype(float)
        tau = dirichlet_map(topic_counts, hyper.alpha)
        psi = dirichlet_map(pair_counts(topics[:, None], labels, n_topics, n_components),
                            hyper.alpha)
        _, mu = emission_means(frames, labels.reshape(-1), n_components, sigma, hyper)
        sigma = emission_sigma(frames, labels.reshape(-1), mu, hyper)

        # E-step with the fresh parameters, over the assignment in place
        picked = np.empty((m, p))

        def work(s):
            table = emission_loglik(features[s], mu, sigma)
            topics[s], labels[s] = _lda_e_step(table, psi, tau)
            picked[s] = picked_terms(table, labels[s])

        sweep_signs(m, p, work, threads)
        return map_log_joint(hyper, mu, sigma, (tau, psi),
                             (safe_log(tau)[topics], safe_log(psi)[topics[:, None], labels],
                              picked))

    report = hard_em(step, max_iters, tol)
    params = GmmLdaParams(topic_word=psi, topic_freq=tau, doc_topic_prior=hyper.alpha,
                          word_prior=hyper.alpha, mu=mu, sigma=sigma)
    return params, report


def sample_gmm(params: GmmParams, n_signs, n_frames=DEFAULT_FRAMES, seed=0, return_labels=False):
    """Draw signs whose frames are i.i.d. mixture draws (no temporal structure)."""
    n_signs, n_frames = check_sizes(n_signs=n_signs, n_frames=n_frames)
    rng = np.random.default_rng(seed)
    labels = draw_categorical(rng, params.weights, (n_signs, n_frames))
    feats = gaussian_frames(rng, params.mu, params.sigma, labels)
    corpus = sampled_corpus(feats, np.full(n_signs, n_frames), "gmm")
    if return_labels:
        return corpus, labels
    return corpus


def sample_gmm_lda(params: GmmLdaParams, n_signs, n_frames=DEFAULT_FRAMES, seed=0,
                   return_labels=False):
    """Draw one topic per sign, then frames i.i.d. from that topic's prototypes."""
    n_signs, n_frames = check_sizes(n_signs=n_signs, n_frames=n_frames)
    rng = np.random.default_rng(seed)
    topics = draw_categorical(rng, params.topic_freq, (n_signs,))
    labels = draw_categorical(rng, params.topic_word[topics][:, None, :], (n_signs, n_frames))
    feats = gaussian_frames(rng, params.mu, params.sigma, labels)
    corpus = sampled_corpus(feats, np.full(n_signs, n_frames), "gmm-lda")
    if return_labels:
        return corpus, topics, labels
    return corpus

"""The hold-prototype sequence model and its hard-EM MAP estimator.

Each sign is a Markov chain over N states. State n emits frames from
N(mu_n, diag(sigma)) with a shared diagonal variance; state 0 is the end
state whose prototype is the zero padding token. Training alternates a hard
E-step (greedy one-pass by default, exact Viterbi on request) with
closed-form MAP M-steps for pi, T and mu and a golden-section search for
sigma, in that order. The objective is the log joint density of parameters,
assignments and frames under the priors:

    sigma_d ~ LogNormal(mu_sigma, sigma_sigma)
    pi, T rows ~ Dir(alpha)
    mu_n (n > 0) ~ N(mu_mu, sigma_mu^2 I)
    c_0 ~ Cat(pi),  c_f ~ Cat(T[c_{f-1}]),  x_f ~ N(mu_{c_f}, diag(sigma))

The baselines share the hard-EM loop (`estimation.hard_em`: stop at
max_iters, at a non-finite objective, or converged once the relative change
is at most tol) and the emission M-step (`emission_means`, `emission_sigma`).
"""

import numpy as np

from .corpus import DEFAULT_FRAMES, Corpus, check_sizes, synth_corpus
from .errors import InvariantViolation
from .estimation import (block_scratch, carried_sum, dirichlet_map, emission_loglik, hard_em,
                         map_log_joint, map_means, map_sigma, pair_counts, picked_terms,
                         row_blocks, safe_log, seed_emissions, sweep_signs)
from .params import Assignment, Hyperparams, ModelParams


def init_params(n_states, corpus: Corpus, seed=0) -> ModelParams:
    """Initial parameters: uniform pi and T, data-seeded prototypes.

    Prototype rows 1..N-1 are distinct non-padding frames chosen by
    farthest-point seeding; sigma starts at the per-dimension empirical std
    of the non-padding frames, floored at SIGMA_INIT_FLOOR (`seed_emissions`).
    """
    if n_states < 2:
        raise InvariantViolation("n_states must be at least 2 (end state plus one prototype)")
    protos, sigma = seed_emissions(np.random.default_rng(seed), corpus.features,
                                   n_states - 1, corpus.true_lengths)
    mu = np.vstack([np.zeros(corpus.dims[2]), protos])
    pi = np.full(n_states, 1.0 / n_states)
    trans = np.full((n_states, n_states), 1.0 / n_states)
    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=sigma)


def _greedy_labels(params: ModelParams, loglik: np.ndarray) -> np.ndarray:
    m, p, _ = loglik.shape
    log_pi = safe_log(params.pi)
    log_t = safe_log(params.trans)
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, 0] = np.argmax(loglik[:, 0] + log_pi, axis=1)
    for f in range(1, p):
        labels[:, f] = np.argmax(loglik[:, f] + log_t[labels[:, f - 1]], axis=1)
    return labels


def _viterbi_labels(params: ModelParams, loglik: np.ndarray) -> np.ndarray:
    m, p, n = loglik.shape
    log_t_next = safe_log(params.trans).T  # [next, previous]
    back = np.empty((m, p, n), dtype=np.min_scalar_type(n - 1))  # uint8 up to 256 states
    alpha = safe_log(params.pi) + loglik[:, 0]
    for f in range(1, p):
        cand = alpha[:, None, :] + log_t_next  # [sign, next, previous]
        # argmax over the previous state, the contiguous axis; ties go to the lower index
        best_prev = np.argmax(cand, axis=2)
        back[:, f] = best_prev
        alpha = np.take_along_axis(cand, best_prev[:, :, None], axis=2)[:, :, 0] + loglik[:, f]
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, -1] = np.argmax(alpha, axis=1)
    rows = np.arange(m)
    for f in range(p - 1, 0, -1):
        labels[:, f - 1] = back[rows, f, labels[:, f]]
    return labels


_LABELS = {"greedy": _greedy_labels, "viterbi": _viterbi_labels}


def _sweep(params: ModelParams, table_of, dims, labels=None, label_fn=None, threads=1):
    """One pass over the sign blocks of an (M, P, ...) corpus (`sweep_signs`)
    under params, reading each block's emission table from table_of(s).
    Returns the emission terms of `labels` (`picked_terms`; None for
    labels=None) and the labels that label_fn gives (None for
    label_fn=None)."""
    m, p = dims[:2]
    picked = None if labels is None else np.empty((m, p))
    out = None if label_fn is None else np.empty((m, p), dtype=np.int64)

    def work(s):
        table = table_of(s)
        if picked is not None:
            picked[s] = picked_terms(table, labels[s])
        if out is not None:
            out[s] = label_fn(params, table)

    sweep_signs(m, p, work, threads)
    return picked, out


def e_step_greedy(params: ModelParams, loglik, threads=1) -> Assignment:
    """One-pass hard assignment: each frame takes the best state given the
    previous frame's choice (posterior score = emission density times pi or
    the incoming transition probability). loglik is the (M, P, N) table
    `emission_loglik(corpus.features, params.mu, params.sigma)`; its sign
    blocks go to `threads` worker threads."""
    return Assignment(labels=_sweep(params, loglik.__getitem__, loglik.shape,
                                    label_fn=_greedy_labels, threads=threads)[1])


def e_step_viterbi(params: ModelParams, loglik, threads=1) -> Assignment:
    """Exact most-probable state path per sign via dynamic programming,
    O(M P N^2). Ties break toward the lower state index. loglik and threads
    as in `e_step_greedy`."""
    return Assignment(labels=_sweep(params, loglik.__getitem__, loglik.shape,
                                    label_fn=_viterbi_labels, threads=threads)[1])


def emission_means(frames, labels, n, sigma, hyper: Hyperparams):
    """Emission M-step, first half: frame counts (n,) and MAP means (n, D)
    of n prototypes from (F, D) frames, their (F,) labels and the previous
    sigma. A prototype with no frames lands exactly on mu_mu."""
    counts = np.bincount(labels, minlength=n).astype(float)
    # one weighted bincount per feature column; bincount adds in index order
    sums = np.stack([np.bincount(labels, weights=col, minlength=n) for col in frames.T], axis=1)
    return counts, map_means(sums, counts, sigma, hyper.mu_mu, hyper.sigma_mu)


def emission_sigma(frames, labels, mu, hyper: Hyperparams):
    """Emission M-step, second half: MAP shared variances of the residuals
    of the (F, D) frames about their prototypes in mu. The residuals are
    built and squared ROW_BLOCK rows at a time, and their sums keep the bits
    of one sum over all rows (`carried_sum`)."""
    d = frames.shape[1]
    blocks = row_blocks(len(frames), d)
    scratch = block_scratch(blocks, d, extra=1)  # row 0 carries the total
    total = None
    for s in blocks:
        residuals = scratch[1:1 + s.stop - s.start]
        np.take(mu, labels[s], axis=0, out=residuals)
        np.subtract(frames[s], residuals, out=residuals)
        residuals *= residuals
        total = carried_sum(scratch, len(residuals), total)
    return map_sigma(total, frames.shape[0], hyper.mu_sigma, hyper.sigma_sigma)


def m_step(corpus: Corpus, assignment: Assignment, hyper: Hyperparams,
           prev: ModelParams) -> ModelParams:
    """Closed-form MAP coordinate updates in the order pi, T, mu, sigma.

    pi and the rows of T are Dirichlet posterior modes of the assignment
    counts (rows with no observations fall back to uniform). Prototype means
    are conjugate precision-weighted averages using the previous sigma, with
    row 0 pinned to zero; sigma maximizes the residual likelihood times its
    LogNormal prior by golden-section search in log-variance.
    """
    labels = assignment.labels
    m, p, d = corpus.dims
    if labels.shape != (m, p):
        raise InvariantViolation("assignment shape does not match the corpus")
    n = prev.n_states

    first_counts = np.bincount(labels[:, 0], minlength=n).astype(float)
    pi = dirichlet_map(first_counts, hyper.alpha)

    trans = dirichlet_map(pair_counts(labels[:, :-1], labels[:, 1:], n, n), hyper.alpha)

    flat_labels = labels.ravel()
    flat_frames = corpus.features.reshape(-1, d)
    _, mu = emission_means(flat_frames, flat_labels, n, prev.sigma, hyper)
    mu[0] = 0.0
    sigma = emission_sigma(flat_frames, flat_labels, mu, hyper)

    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=sigma)


def _chain_score(params: ModelParams, labels):
    """The categorical terms of the state chains: pi at the first frame,
    then each transition."""
    score = safe_log(params.pi)[labels[:, 0]].sum()
    return score + safe_log(params.trans)[labels[:, :-1], labels[:, 1:]].sum()


def _path_score(chain, picked) -> float:
    """`joint_path_score` from the chains' categorical terms (`_chain_score`)
    and the emission terms of their labels (`picked_terms`)."""
    return float(picked.sum() + chain)


def _objective(params: ModelParams, hyper: Hyperparams, path_score) -> float:
    """`log_joint` given `joint_path_score`."""
    return map_log_joint(hyper, params.mu[1:], params.sigma, (params.pi, params.trans),
                         (path_score,))


def joint_path_score(params: ModelParams, assignment: Assignment, loglik) -> float:
    """Assignment-dependent part of the log joint: categorical terms for the
    state chains plus the emission log densities. loglik as in
    `e_step_greedy`."""
    labels = assignment.labels
    return _path_score(_chain_score(params, labels), picked_terms(loglik, labels))


def log_joint(params: ModelParams, assignment: Assignment, hyper: Hyperparams,
              loglik) -> float:
    """Log density of every factor (`map_log_joint`): priors on sigma, pi, T
    and mu[1:] (row 0 is the fixed end token), plus `joint_path_score` as one
    term. loglik as in `e_step_greedy`."""
    return _objective(params, hyper, joint_path_score(params, assignment, loglik))


_E_STEPS = {"greedy": e_step_greedy, "viterbi": e_step_viterbi}


def fit_em(corpus: Corpus, n_states, hyper: Hyperparams = Hyperparams(), *,
           max_iters=200, tol=1e-6, e_step="greedy", seed=0, threads=1):
    """Hard-EM MAP estimation. Returns (params, assignment, report).

    Stops (in `hard_em`) after max_iters iterations, at a non-finite log
    joint, or converged once its relative change is at most tol. The
    report's trace holds one log-joint value per iteration; with the exact
    Viterbi E-step it is non-decreasing.

    No emission table of the whole corpus is built: one sweep over sign
    blocks (`_sweep`, on `threads` worker threads) after seeding and one
    after each M-step compute each block's table once, take the objective's
    emission terms of the current labels from it and the next E-step's
    labels. The last allowed iteration takes no next labels.
    """
    if e_step not in _E_STEPS:
        raise InvariantViolation(f"e_step must be one of {sorted(_E_STEPS)}, got '{e_step}'")
    label_fn = _LABELS[e_step]
    features = corpus.features
    params = init_params(n_states, corpus, seed=seed)

    def sweep(labels, relabel):
        return _sweep(params, lambda s: emission_loglik(features[s], params.mu, params.sigma),
                      corpus.dims, labels, label_fn if relabel else None, threads)

    _, labels = sweep(None, True)
    assignment = None
    iteration = 0

    def step():
        nonlocal params, labels, assignment, iteration
        iteration += 1
        assignment, labels = Assignment(labels=labels), None  # the assignment holds a copy
        params = m_step(corpus, assignment, hyper, params)
        # the categorical terms first, so their temporaries go before the sweep's arrays
        chain = _chain_score(params, assignment.labels)
        picked, labels = sweep(assignment.labels, iteration < max_iters)
        return _objective(params, hyper, _path_score(chain, picked))

    report = hard_em(step, max_iters, tol)
    return params, assignment, report


def sample(params: ModelParams, n_signs, n_frames=DEFAULT_FRAMES, seed=0,
           exact_end_token=True) -> Corpus:
    """Draw a corpus from the model by ancestral sampling."""
    n_signs, n_frames = check_sizes(n_signs=n_signs, n_frames=n_frames)
    corpus, _ = synth_corpus(params, n_signs, seed, n_frames=n_frames,
                             exact_end_token=exact_end_token, gloss_prefix="sample")
    return corpus

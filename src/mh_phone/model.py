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

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .corpus import DEFAULT_FRAMES, Corpus, check_sizes, synth_corpus
from .errors import InvariantViolation
from .estimation import (block_scratch, carried_sum, dirichlet_map, emission_loglik, hard_em,
                         map_log_joint, map_means, map_sigma, pair_counts, row_blocks, safe_log,
                         seed_emissions)
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
    log_t = safe_log(params.trans)
    back = np.empty((m, p, n), dtype=np.int64)
    alpha = safe_log(params.pi) + loglik[:, 0]
    for f in range(1, p):
        cand = alpha[:, :, None] + log_t[None, :, :]
        # argmax over the previous state; ties go to the lower index
        best_prev = np.argmax(cand, axis=1)
        back[:, f] = best_prev
        alpha = np.take_along_axis(cand, best_prev[:, None, :], axis=1)[:, 0, :] + loglik[:, f]
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, -1] = np.argmax(alpha, axis=1)
    rows = np.arange(m)
    for f in range(p - 1, 0, -1):
        labels[:, f - 1] = back[rows, f, labels[:, f]]
    return labels


def _chunked(label_fn, params, loglik, threads):
    """Assignment of every sign by label_fn over rows of the emission table."""
    m = loglik.shape[0]
    if threads <= 1 or m < 2 * threads:
        return Assignment(labels=label_fn(params, loglik))
    # contiguous slices, so each worker reads a view of the table, not a copy
    blocks = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(m), threads)]
    out = np.empty(loglik.shape[:2], dtype=np.int64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(block, pool.submit(label_fn, params, loglik[block])) for block in blocks]
        for block, fut in futures:
            out[block] = fut.result()
    return Assignment(labels=out)


def e_step_greedy(params: ModelParams, loglik, threads=1) -> Assignment:
    """One-pass hard assignment: each frame takes the best state given the
    previous frame's choice (posterior score = emission density times pi or
    the incoming transition probability). loglik is the (M, P, N) table
    `emission_loglik(corpus.features, params.mu, params.sigma)`."""
    return _chunked(_greedy_labels, params, loglik, threads)


def e_step_viterbi(params: ModelParams, loglik, threads=1) -> Assignment:
    """Exact most-probable state path per sign via dynamic programming,
    O(M P N^2). Ties break toward the lower state index. loglik as in
    `e_step_greedy`."""
    return _chunked(_viterbi_labels, params, loglik, threads)


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


def joint_path_score(params: ModelParams, assignment: Assignment, loglik) -> float:
    """Assignment-dependent part of the log joint: categorical terms for the
    state chains plus the emission log densities. loglik as in
    `e_step_greedy`."""
    labels = assignment.labels
    emission = np.take_along_axis(loglik, labels[:, :, None], axis=2).sum()
    categorical = safe_log(params.pi)[labels[:, 0]].sum()
    categorical += safe_log(params.trans)[labels[:, :-1], labels[:, 1:]].sum()
    return float(emission + categorical)


def log_joint(params: ModelParams, assignment: Assignment, hyper: Hyperparams,
              loglik) -> float:
    """Log density of every factor (`map_log_joint`): priors on sigma, pi, T
    and mu[1:] (row 0 is the fixed end token), plus `joint_path_score` as one
    term. loglik as in `e_step_greedy`."""
    return map_log_joint(hyper, params.mu[1:], params.sigma, (params.pi, params.trans),
                         (joint_path_score(params, assignment, loglik),))


_E_STEPS = {"greedy": e_step_greedy, "viterbi": e_step_viterbi}


def fit_em(corpus: Corpus, n_states, hyper: Hyperparams = Hyperparams(), *,
           max_iters=200, tol=1e-6, e_step="greedy", seed=0, threads=1):
    """Hard-EM MAP estimation. Returns (params, assignment, report).

    Stops (in `hard_em`) after max_iters iterations, at a non-finite log
    joint, or converged once its relative change is at most tol. The
    report's trace holds one log-joint value per iteration; with the exact
    Viterbi E-step it is non-decreasing.
    """
    if e_step not in _E_STEPS:
        raise InvariantViolation(f"e_step must be one of {sorted(_E_STEPS)}, got '{e_step}'")
    assign = _E_STEPS[e_step]
    params = init_params(n_states, corpus, seed=seed)
    assignment = None
    # the emission table under the current params: the objective of one
    # iteration and the E-step of the next read the same table
    loglik = emission_loglik(corpus.features, params.mu, params.sigma)

    def step():
        nonlocal params, assignment, loglik
        assignment = assign(params, loglik, threads=threads)
        loglik = None  # the table goes before the M-step and the next table are built
        params = m_step(corpus, assignment, hyper, params)
        loglik = emission_loglik(corpus.features, params.mu, params.sigma)
        return log_joint(params, assignment, hyper, loglik)

    report = hard_em(step, max_iters, tol)
    return params, assignment, report


def sample(params: ModelParams, n_signs, n_frames=DEFAULT_FRAMES, seed=0,
           exact_end_token=True) -> Corpus:
    """Draw a corpus from the model by ancestral sampling."""
    n_signs, n_frames = check_sizes(n_signs=n_signs, n_frames=n_frames)
    corpus, _ = synth_corpus(params, n_signs, seed, n_frames=n_frames,
                             exact_end_token=exact_end_token, gloss_prefix="sample")
    return corpus

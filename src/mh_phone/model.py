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

The Viterbi E-step runs state-major: over a contiguous (P, N, M) copy of
each sign block's table, with a Python loop over the N states in which
every add, compare and maximum is one numpy operation over all M signs.
An argmax over the short state axis would run one N-wide inner loop per
sign and state instead, which took most of the E-step's time.
"""

import numpy as np

from .corpus import DEFAULT_FRAMES, Corpus, synth_corpus
from .errors import InvariantViolation
from .estimation import (block_scratch, carried_sum, dirichlet_map, emission_loglik, hard_em,
                         map_log_joint, map_means, map_sigma, pair_counts, picked_terms,
                         row_blocks, running_max, safe_log, seed_emissions, sweep_signs)
from .params import Hyperparams, ModelParams, check_sizes


def init_params(n_states, corpus: Corpus, seed=0) -> ModelParams:
    """Initial parameters: uniform pi and T, data-seeded prototypes.

    Prototype rows 1..N-1 are distinct non-padding frames chosen by
    farthest-point seeding; sigma starts at the per-dimension empirical std
    of the non-padding frames, floored at SIGMA_INIT_FLOOR (`seed_emissions`).
    """
    (n_states,) = check_sizes(least=2, n_states=n_states)
    protos, sigma = seed_emissions(np.random.default_rng(seed), corpus.features,
                                   n_states - 1, corpus.true_lengths)
    mu = np.vstack([np.zeros(corpus.dims[2]), protos])
    pi = np.full(n_states, 1.0 / n_states)
    trans = np.full((n_states, n_states), 1.0 / n_states)
    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=sigma)


def e_step_greedy(params: ModelParams, loglik) -> np.ndarray:
    """One-pass hard assignment: each frame takes the best state given the
    previous frame's choice (posterior score = emission density times pi or
    the incoming transition probability). loglik is an (M, P, N) emission
    table, `emission_loglik(features, params.mu, params.sigma)` of (M, P, D)
    features; returns the (M, P) int64 labels."""
    m, p, _ = loglik.shape
    log_pi = safe_log(params.pi)
    log_t = safe_log(params.trans)
    labels = np.empty((m, p), dtype=np.int64)
    labels[:, 0] = np.argmax(loglik[:, 0] + log_pi, axis=1)
    for f in range(1, p):
        labels[:, f] = np.argmax(loglik[:, f] + log_t[labels[:, f - 1]], axis=1)
    return labels


def e_step_viterbi(params: ModelParams, loglik) -> np.ndarray:
    """Exact most-probable state path per sign via dynamic programming,
    O(M P N^2). Ties break toward the lower state index. loglik and the
    result as in `e_step_greedy`.

    The program runs state-major, over a contiguous (P, N, M) copy of the
    table: each frame's best previous state is a `running_max` over the N
    previous states of (N, M) arrays, so every step is a whole-array numpy
    operation rather than one N-wide argmax per sign and state. A sign
    whose scores hold a NaN gets the path of numpy's argmax, which takes
    the first NaN."""
    cols = np.ascontiguousarray(loglik.transpose(1, 2, 0))  # [frame, state, sign]
    log_pi = safe_log(params.pi)[:, None]
    log_t = safe_log(params.trans)[:, :, None]  # [previous, next, 1]
    back, alpha = _viterbi_back(cols, log_pi, log_t)
    if np.isnan(alpha).any():  # a NaN score anywhere on a sign reaches its last alpha
        back, alpha = _viterbi_back(cols, log_pi, log_t, nan_first=True)
    p, _, m = cols.shape
    path = np.empty((p, m), dtype=np.int64)
    path[-1] = np.argmax(alpha, axis=0)
    signs = np.arange(m)
    for f in range(p - 1, 0, -1):
        path[f - 1] = back[f, path[f], signs]
    return np.ascontiguousarray(path.T)


def _viterbi_back(cols, log_pi, log_t, nan_first=False):
    """The (P, N, M) back pointers (uint8 up to 256 states) and the last
    frame's (N, M) path scores of a state-major (P, N, M) table."""
    p, n, m = cols.shape
    back = np.empty((p, n, m), dtype=np.min_scalar_type(n - 1))
    alpha = cols[0] + log_pi
    best = np.empty((n, m))

    def from_state(k, out):
        np.add(alpha[k], log_t[k], out=out)  # [next, sign]

    for f in range(1, p):
        running_max(from_state, n, best, back[f], nan_first)
        np.add(best, cols[f], out=alpha)
    return back, alpha


def emission_sweep(features, mu, sigma, threads, *, labels=None, label_fn=None, out=None):
    """One pass over the sign blocks of (M, P, D) features (`sweep_signs`,
    on `threads` worker threads) that builds each block's emission table
    under (mu, sigma) once. Returns the emission terms of the (M, P)
    `labels` (`picked_terms`; None for labels=None), and writes
    label_fn(table) of each block into `out` (unless None) after taking
    them, so `out` may be `labels` itself."""
    m, p = features.shape[:2]
    picked = None if labels is None else np.empty((m, p))

    def work(s):
        table = emission_loglik(features[s], mu, sigma)
        if picked is not None:
            picked[s] = picked_terms(table, labels[s])
        if out is not None:
            out[s] = label_fn(table)

    sweep_signs(m, p, work, threads)
    return picked


def emission_means(frames, labels, n, sigma, hyper: Hyperparams):
    """Emission M-step, first half: frame counts (n,) and MAP means (n, D)
    of n prototypes from (F, D) frames, their (F,) labels and the previous
    sigma. A prototype with no frames lands exactly on mu_mu.

    The sums are taken ROW_BLOCK frames at a time: each block is written
    transposed into a (D, N + B) scratch whose first N columns carry the
    sums so far, under the labels 0..N-1, and one weighted `bincount` per
    contiguous feature row adds it all. bincount adds in index order from
    0.0, so the carried sums continue one bincount over every frame bit for
    bit, without a bincount over each strided feature column."""
    counts = np.bincount(labels, minlength=n).astype(float)
    d = frames.shape[1]
    blocks = row_blocks(len(frames), d)
    # [feature, carried + frame]
    scratch = np.empty((d, n + max((s.stop - s.start for s in blocks), default=0)))
    scratch[:, :n] = 0.0
    keys = np.empty(scratch.shape[1], dtype=np.intp)
    keys[:n] = np.arange(n)
    for s in blocks:
        end = n + s.stop - s.start
        scratch[:, n:end] = frames[s].T
        keys[n:end] = labels[s]
        for row in scratch:
            row[:n] = np.bincount(keys[:end], weights=row[:end], minlength=n)
    return counts, map_means(scratch[:, :n].T, counts, sigma, hyper.mu_mu, hyper.sigma_mu)


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


def m_step(corpus: Corpus, labels, hyper: Hyperparams, prev: ModelParams) -> ModelParams:
    """Closed-form MAP coordinate updates in the order pi, T, mu, sigma.

    labels is an integer (M, P) array of states in [0, N), one per frame of
    the corpus; any other raises InvariantViolation. pi and the rows of T
    are Dirichlet posterior modes of the label counts (rows with no
    observations fall back to uniform). Prototype means are conjugate
    precision-weighted averages using the previous sigma, with row 0 pinned
    to zero; sigma maximizes the residual likelihood times its LogNormal
    prior by golden-section search in log-variance.
    """
    m, p, d = corpus.dims
    n = prev.n_states
    labels = np.asarray(labels)
    if labels.shape != (m, p) or not np.issubdtype(labels.dtype, np.integer):
        raise InvariantViolation(f"labels must be an integer {(m, p)} array, got "
                                 f"{labels.dtype} of shape {labels.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < n:
        raise InvariantViolation(f"labels must be states in [0, {n})")
    labels = labels.astype(np.int64, copy=False)

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


def _objective(params: ModelParams, hyper: Hyperparams, chain, picked) -> float:
    """`log_joint` from the chains' categorical terms (`_chain_score`) and
    the emission terms of their labels (`picked_terms`)."""
    return map_log_joint(hyper, params.mu[1:], params.sigma, (params.pi, params.trans),
                         (float(picked.sum() + chain),))


def joint_path_score(params: ModelParams, labels, loglik) -> float:
    """Label-dependent part of the log joint: categorical terms for the
    state chains plus the emission log densities. labels is an (M, P) state
    array and loglik an (M, P, N) table as in `e_step_greedy`."""
    return float(picked_terms(loglik, labels).sum() + _chain_score(params, labels))


def log_joint(params: ModelParams, labels, hyper: Hyperparams, loglik) -> float:
    """Log density of every factor (`map_log_joint`): priors on sigma, pi, T
    and mu[1:] (row 0 is the fixed end token), plus `joint_path_score` as one
    term. labels and loglik as in `joint_path_score`."""
    return _objective(params, hyper, _chain_score(params, labels), picked_terms(loglik, labels))


_E_STEPS = {"greedy": e_step_greedy, "viterbi": e_step_viterbi}


def fit_em(corpus: Corpus, n_states, hyper: Hyperparams = Hyperparams(), *,
           max_iters=200, tol=1e-6, e_step="greedy", seed=0, threads=1):
    """Hard-EM MAP estimation. Returns (params, labels, report): the fitted
    parameters, the (M, P) int64 labels they were fitted from, and the fit
    report.

    Stops (in `hard_em`) after max_iters iterations, at a non-finite log
    joint, or converged once its relative change is at most tol. The
    report's trace holds one log-joint value per iteration; with the exact
    Viterbi E-step it is non-decreasing.

    No emission table of the whole corpus is built: one `emission_sweep`
    after seeding and one after each M-step compute each block's table
    once, take the objective's emission terms of the fitted labels from it
    and the next E-step's labels. The last allowed iteration takes no next
    labels.
    """
    max_iters, threads = check_sizes(max_iters=max_iters, threads=threads)
    if e_step not in _E_STEPS:
        raise InvariantViolation(f"e_step must be one of {sorted(_E_STEPS)}, got '{e_step}'")
    # not through _E_STEPS, which callers may wrap
    e_step_fn = e_step_viterbi if e_step == "viterbi" else e_step_greedy
    features = corpus.features
    params = init_params(n_states, corpus, seed=seed)

    def label_fn(table):
        return e_step_fn(params, table)

    fitted, pending = None, np.empty(corpus.dims[:2], dtype=np.int64)
    emission_sweep(features, params.mu, params.sigma, threads, label_fn=label_fn, out=pending)

    def step(last):
        nonlocal params, fitted, pending
        # the E-step's labels become the fitted ones; the old array takes the next
        fitted, pending = pending, fitted
        if last:
            pending = None
        elif pending is None:
            pending = np.empty_like(fitted)
        params = m_step(corpus, fitted, hyper, params)
        # the categorical terms first, so their temporaries go before the sweep's arrays
        chain = _chain_score(params, fitted)
        picked = emission_sweep(features, params.mu, params.sigma, threads, labels=fitted,
                                label_fn=label_fn, out=pending)
        return _objective(params, hyper, chain, picked)

    report = hard_em(step, max_iters, tol)
    return params, fitted, report


def sample(params: ModelParams, n_signs, n_frames=DEFAULT_FRAMES, seed=0,
           exact_end_token=True) -> Corpus:
    """Draw a corpus from the model by ancestral sampling."""
    n_signs, n_frames = check_sizes(n_signs=n_signs, n_frames=n_frames)
    corpus, _ = synth_corpus(params, n_signs, seed, n_frames=n_frames,
                             exact_end_token=exact_end_token, gloss_prefix="sample")
    return corpus

"""Shared MAP estimation primitives.

The sequence model and the frame-mixture baselines use the same conjugate
updates for categorical weights and Gaussian prototype means, the same 1-D
search for the shared diagonal variances, the same prototype seeding, the
same hard-EM driver (`hard_em`), the same MAP objective (`map_log_joint`)
and the same Gaussian frame draw (`gaussian_frames`). Keeping them here
means the ablations differ from the full model only in how frames are
assigned.

Conventions: `sigma` vectors hold per-dimension *variances* of the diagonal
emission Gaussian, and Dirichlet concentrations are scalar (symmetric).
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvariantViolation, NotEnoughData
from .params import FitReport, Hyperparams, check_sizes

SIGMA_INIT_FLOOR = 1e-3

# Search bracket for log-variance; doubles as a numerical floor/ceiling.
LOG_SIGMA_LO = -8.0
LOG_SIGMA_HI = 8.0

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


GOLDEN_TOL = 1e-8  # bracket width at which the golden-section search stops

# Rows of an (F, D) frame array that a row-blocked kernel holds at once. A
# power of two, so every block starts where a BLAS matrix-vector kernel that
# takes rows in groups of 4 or 8 starts a group in one call over all rows.
ROW_BLOCK = 1 << 13


def row_blocks(n_rows, d):
    """Contiguous slices of ROW_BLOCK rows covering range(n_rows) in order.

    A last block of one row joins the one before: numpy multiplies a single
    row by a vector with a dot product, whose bits differ from those of a
    matrix-vector product over more rows. With d = 1 one slice covers every
    row, because numpy sums an (F, 1) column pairwise, not row by row."""
    step = ROW_BLOCK if d > 1 else max(n_rows, 1)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


# Signs of an (M, P, D) corpus that one step of a sign-block sweep
# (`sweep_signs`) takes. A multiple of 8, so every block's M * P rows start
# where BLAS starts a group of rows in one call over the whole corpus, and
# a block's emission table has the bits of those rows of the whole table.
SIGN_BLOCK = 512


def sign_blocks(m, p):
    """Contiguous slices of SIGN_BLOCK signs covering range(m) in order. A
    last block of one row (one sign with p = 1) joins the one before, as in
    `row_blocks`."""
    starts = list(range(0, m, SIGN_BLOCK))
    if len(starts) > 1 and p == 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def sweep_signs(m, p, work, threads=1):
    """Call work(s) for each slice s of `sign_blocks(m, p)`. The blocks go to
    a pool of `threads` worker threads, but to no more workers than there
    are full blocks, and to none when that leaves one: a worker with less
    than a block to do costs more in thread starts and interpreter-lock
    handoffs than it saves. Each call writes its results at s in the
    caller's arrays, so they do not depend on `threads`; the first error
    raised by a block is raised here."""
    blocks = sign_blocks(m, p)
    workers = min(threads, m // SIGN_BLOCK)
    if workers < 2:
        for s in blocks:
            work(s)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(work, s) for s in blocks]:
            future.result()


def picked_terms(table, labels):
    """The entries of an (..., N) table at (...) labels, as one array laid
    out like the labels: the emission terms of an assignment, whose sum the
    objective adds."""
    return np.take_along_axis(table, labels[..., None], axis=-1)[..., 0]


def running_max(candidate, n, best, arg=None, nan_first=False):
    """Running maximum over n states of state-major candidates.
    candidate(k, out) writes state k's candidates into `out`, an array
    shaped like `best`; `best` ends as their elementwise maximum and `arg`,
    if given, as the first state that reaches it, as np.argmax over a
    stacked state axis picks it: ties go to the lower state. Each step is a
    few numpy operations over the whole array, where an argmax over a short
    state axis runs one tiny loop per element. The index write is a maximum
    of k * (candidate > best), since the last state that raised the maximum
    is the largest such k. A NaN candidate makes `best` NaN; `arg` then
    keeps the state before it unless nan_first, which takes the first NaN
    as np.argmax does, at two more passes per state."""
    candidate(0, best)
    cand = np.empty_like(best)
    if arg is not None:
        arg.fill(0)
        moved = np.empty(best.shape, dtype=bool)
        index = np.empty_like(arg)
    for k in range(1, n):
        candidate(k, cand)
        if arg is not None:
            np.greater(cand, best, out=moved)
            if nan_first:
                moved |= np.isnan(cand) & ~np.isnan(best)
            np.multiply(moved, arg.dtype.type(k), out=index)
            np.maximum(arg, index, out=arg)
        np.maximum(best, cand, out=best)


def block_scratch(blocks, d, extra=0):
    """An uninitialised (rows, d) buffer with room for the longest of
    `blocks` plus `extra` rows."""
    return np.empty((max((s.stop - s.start for s in blocks), default=0) + extra, d))


def carried_sum(scratch, n, total):
    """`total` plus the sums down axis 0 of rows 1..n of `scratch`, with the
    bits of numpy's axis-0 sum of one array holding the rows summed into
    `total` followed by these. For D > 1 numpy adds the rows of a C-order
    array to a running total one at a time, starting from +0.0, so the total
    carried in row 0 continues that chain. total=None starts one (the only
    block of a D = 1 column, see `row_blocks`)."""
    if total is None:
        return scratch[1:n + 1].sum(axis=0)
    scratch[0] = total
    return scratch[:n + 1].sum(axis=0)


def golden_section_max(fn, lo, hi):
    """Argmax of a unimodal function on [lo, hi], within GOLDEN_TOL.

    Returns the midpoint of the final bracket. Boundary maxima are fine:
    the bracket simply collapses onto the boundary.
    """
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while (hi - lo) > GOLDEN_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def safe_log(p):
    """Elementwise log with log(0) = -inf and no warnings."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, -np.inf)
    np.log(p, out=out, where=p > 0)
    return out


def dirichlet_map(counts, alpha):
    """Posterior mode of a categorical distribution under a Dir(alpha) prior.

    counts is one row of observation counts, or a (K, N) table of K rows that
    are each treated as their own distribution. Weights are
    (counts + alpha - 1) clipped at zero and renormalized. When every weight
    of a row clips to zero (no observations at alpha = 1) that row's mode is
    taken as uniform.
    """
    w = np.maximum(np.asarray(counts, dtype=float) + alpha - 1.0, 0.0)
    total = w.sum(axis=-1, keepdims=True)
    out = np.full(w.shape, 1.0 / w.shape[-1])
    np.divide(w, total, out=out, where=total > 0.0)
    return out


def dirichlet_logpdf(probs, alpha):
    """log Dir(probs | alpha * 1_N).

    At alpha = 1 the density is the constant Gamma(N), so zero entries in
    `probs` contribute nothing; for alpha != 1 they give -inf as they should.
    """
    probs = np.asarray(probs, dtype=float)
    n = probs.shape[-1]
    norm = math.lgamma(n * alpha) - n * math.lgamma(alpha)
    if alpha == 1.0:
        return norm
    return norm + float((alpha - 1.0) * safe_log(probs).sum())


def normal_logpdf(x, mean, var):
    """Elementwise log N(x | mean, var)."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def lognormal_logpdf(x, mu, sigma):
    """Elementwise log LogNormal(x | mu, sigma) for x > 0."""
    lx = np.log(np.asarray(x, dtype=float))
    return -lx - math.log(sigma) - 0.5 * math.log(2.0 * np.pi) - (lx - mu) ** 2 / (2.0 * sigma * sigma)


def emission_loglik(frames, mu, sigma):
    """Log density of each frame under each prototype's diagonal Gaussian.

    frames: (..., D); mu: (N, D); sigma: (D,) variances. Returns (..., N).
    The Mahalanobis term is expanded as |x|^2_w - 2 x.(w mu) + |mu|^2_w with
    w = 1/sigma, so no (..., N, D) difference is built. The |x|^2_w term is
    taken ROW_BLOCK frames at a time, so the (..., N) result and one block
    of squared frames are the only large temporaries. The expansion cancels
    when frames sit near their prototype far from the origin; the error
    stays within a few ulps of |x|^2_w + |mu|^2_w.
    """
    x = np.asarray(frames, dtype=float)
    mu = np.asarray(mu, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    out = flat @ (mu * w).T
    out *= -2.0
    blocks = row_blocks(len(flat), flat.shape[1])
    squares = block_scratch(blocks, flat.shape[1])
    for s in blocks:
        block = np.multiply(flat[s], flat[s], out=squares[:s.stop - s.start])
        out[s] += (block @ w)[:, None]
    out += (mu * mu) @ w  # out holds the Mahalanobis term
    out += np.sum(np.log(2.0 * np.pi * sigma))
    out *= -0.5
    return out.reshape(x.shape[:-1] + mu.shape[:1])


def map_log_joint(hyper: Hyperparams, mu, sigma, tables, picked) -> float:
    """MAP log joint of every model, added in this order (which fixes the
    rounding): LogNormal prior of sigma, Dirichlet prior of each row of each
    table, Normal prior of the free means mu, then the sum of each `picked`."""
    total = float(lognormal_logpdf(sigma, hyper.mu_sigma, hyper.sigma_sigma).sum())
    for table in tables:
        total += sum(dirichlet_logpdf(row, hyper.alpha) for row in np.atleast_2d(table))
    total += float(normal_logpdf(mu, hyper.mu_mu, hyper.sigma_mu ** 2).sum())
    for term in picked:
        total += float(np.sum(term))
    return total


def pair_counts(rows, cols, n_rows, n_cols):
    """(n_rows, n_cols) counts of the label pairs of two broadcasting arrays,
    taken about ROW_BLOCK pairs at a time along their first axis."""
    rows, cols = np.broadcast_arrays(rows, cols)
    step = max(1, ROW_BLOCK // max(1, math.prod(rows.shape[1:])))
    counts = np.zeros(n_rows * n_cols, dtype=np.int64)
    for a in range(0, len(rows), step):
        flat = rows[a:a + step] * n_cols
        flat += cols[a:a + step]
        counts += np.bincount(flat.ravel(), minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols)


def map_means(sums, counts, sigma, mu_mu, sigma_mu):
    """Conjugate MAP of Gaussian prototype means, one row per component.

    sums: (K, D) sums of assigned frames; counts: (K,); sigma: (D,) emission
    variances; prior N(mu_mu, sigma_mu^2) iid per dimension. Components with
    no assigned frames land exactly on the prior mean.
    """
    sums = np.asarray(sums, dtype=float)
    counts = np.asarray(counts, dtype=float)[:, None]
    prior_prec = 1.0 / (sigma_mu * sigma_mu)
    num = sums / sigma + mu_mu * prior_prec
    den = counts / sigma + prior_prec
    return num / den


def map_sigma(sq_sums, n_obs, mu_sigma, sigma_sigma):
    """MAP of the shared per-dimension emission variances.

    For each dimension d, maximizes the Gaussian likelihood of the n_obs
    assigned residuals (sum of squares sq_sums[d]) times a
    LogNormal(mu_sigma, sigma_sigma) prior. The posterior is unimodal in
    log-variance, searched by golden section on [LOG_SIGMA_LO, LOG_SIGMA_HI].
    """
    sq_sums = np.asarray(sq_sums, dtype=float)
    out = np.empty(sq_sums.shape[0])
    prior_scale = 2.0 * sigma_sigma * sigma_sigma
    for d, ssr in enumerate(sq_sums):

        def objective(t, ssr=ssr):
            # Emission term plus prior, dropping everything free of t.
            return (-0.5 * n_obs * t - 0.5 * ssr * math.exp(-t)
                    - t - (t - mu_sigma) ** 2 / prior_scale)

        out[d] = math.exp(golden_section_max(objective, LOG_SIGMA_LO, LOG_SIGMA_HI))
    return out


def seed_emissions(rng, features, k, lengths=None):
    """(mu, sigma) seeded from the data frames of (..., D) features: every
    row, or with (M,) `lengths` the first lengths[i] rows of each sign i of
    (M, P, D) features. mu holds k data frames picked farthest-point from a
    random start, sigma the per-dimension std of the data frames floored at
    SIGMA_INIT_FLOOR. Raises NotEnoughData when there are fewer than k.

    The data frames are copied ROW_BLOCK at a time, never all at once, with
    their rows found from the cumulative lengths a block at a time; only the
    farthest-point distances take one value per data frame. Every distance
    and sum keeps the bits of the one-array formulas."""
    d = features.shape[-1]
    flat = features.reshape(-1, d)
    if lengths is None:
        n = len(flat)

        def rows_of(a, b):
            return np.arange(a, b)
    else:
        ends = np.cumsum(lengths)  # data frames up to the end of each sign
        starts = ends - lengths
        n = int(ends[-1])

        def rows_of(a, b):
            """The rows of data frames a..b-1, from the signs they fall in."""
            i, j = np.searchsorted(ends, [a, b - 1], side="right")
            signs = slice(i, j + 1)
            counts = np.minimum(ends[signs], b) - np.maximum(starts[signs], a)
            shift = np.arange(i, j + 1) * features.shape[1] - starts[signs]
            return np.arange(a, b) + np.repeat(shift, counts)
    if n < k:
        raise NotEnoughData(f"{n} frames cannot seed {k} prototypes")
    blocks = row_blocks(n, d)  # of data frames
    scratch = block_scratch(blocks, d, extra=1)  # row 0 carries `carried_sum`'s total

    def data_blocks():
        """Each block of data frames in turn, copied to scratch[1:]."""
        for s in blocks:
            rows = scratch[1:1 + s.stop - s.start]
            np.take(flat, rows_of(s.start, s.stop), axis=0, out=rows,
                    mode="clip")  # clip: no buffering
            yield s, rows

    # farthest-point picks; a picked frame's distance is -1, so it is never picked again
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    while len(chosen) < k:
        x = flat[rows_of(chosen[-1], chosen[-1] + 1)[0]]
        for s, rows in data_blocks():
            rows -= x
            rows *= rows
            np.minimum(d2[s], rows.sum(axis=1), out=d2[s])
        d2[chosen[-1]] = -1.0
        chosen.append(int(np.argmax(d2)))

    def column_sums(mean):
        """Sums over the data frames of (frame - mean)^2, or of the frames
        themselves for mean=None."""
        total = None
        for _, rows in data_blocks():
            if mean is not None:
                np.subtract(rows, mean, out=rows)
                np.square(rows, out=rows)
            total = carried_sum(scratch, len(rows), total)
        return total

    # numpy's std: the mean, then the mean squared deviation from it
    std = np.sqrt(column_sums(column_sums(None) / n) / n)
    return (flat[np.concatenate([rows_of(c, c + 1) for c in chosen])],
            np.maximum(std, SIGMA_INIT_FLOOR))


def draw_categorical(rng, probs, shape):
    """An array of `shape` of category draws, one uniform u each.

    probs (..., N) broadcasts against shape + (1,), so draws may share one
    distribution or take a row each. u picks the number of cdf entries <= u;
    the last entry is pinned to 1 so rounding cannot push u past the end.
    """
    cdf = np.cumsum(np.asarray(probs, dtype=float), axis=-1)
    cdf[..., -1] = 1.0
    return (cdf <= rng.random(shape)[..., None]).sum(axis=-1)


def gaussian_frames(rng, mu, sigma, labels):
    """One draw from N(mu[l], diag(sigma)) for each label l: a new array of
    labels.shape + (D,). The normals are drawn into it and scaled in place,
    and the means are added ROW_BLOCK rows at a time, so it is the only
    array of its size; the bits are those of
    mu[labels] + rng.standard_normal(labels.shape + (D,)) * sqrt(sigma)."""
    out = np.empty(labels.shape + mu.shape[1:])
    rng.standard_normal(out=out)
    out *= np.sqrt(sigma)
    flat, flat_labels = out.reshape(-1, mu.shape[1]), labels.reshape(-1)
    for s in row_blocks(len(flat), mu.shape[1]):
        flat[s] += mu[flat_labels[s]]
    return out


def markov_chain_sample(rng, pi, trans, n_chains, length):
    """Ancestral sampling of n_chains state chains of the given length."""
    trans = np.asarray(trans, dtype=float)
    states = np.empty((n_chains, length), dtype=np.int64)
    states[:, 0] = draw_categorical(rng, pi, n_chains)
    for f in range(1, length):
        states[:, f] = draw_categorical(rng, trans[states[:, f - 1]], n_chains)
    return states


def relative_change(new, old):
    """|new - old| scaled by max(1, |old|); used by the EM stopping rule."""
    return abs(new - old) / max(1.0, abs(old))


def hard_em(step, max_iters, tol) -> FitReport:
    """The hard-EM loop of the sequence model and the baselines.

    step(last) runs one iteration in the fitter's own order and returns the
    new objective; last is True on the max_iters-th call only, so that step
    can skip the work that only a further iteration reads. The loop stops
    after max_iters iterations, at a non-finite objective, or once the
    relative change from the previous objective is at most tol; only the
    last stop reports converged=True. With no previous objective, the first
    iteration stops only for tol = inf. max_iters must be a count of at
    least 1 (`params.check_sizes`); NaN tol raises.
    """
    (max_iters,) = check_sizes(max_iters=max_iters)
    if math.isnan(tol):
        raise InvariantViolation("tol must not be NaN")
    trace: list[float] = []
    converged = False
    while len(trace) < max_iters:
        trace.append(step(len(trace) + 1 == max_iters))
        if not math.isfinite(trace[-1]):
            break
        rel = math.inf if len(trace) == 1 else relative_change(trace[-1], trace[-2])
        if not rel > tol:
            converged = len(trace) > 1
            break
    return FitReport(iterations=len(trace), log_joint_trace=trace, converged=converged)

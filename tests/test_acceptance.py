"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with the measured numbers so a full
run reads as a checklist. Tolerances are pinned next to each test.
"""

import itertools
import math
import time
import warnings

import numpy as np
from scipy import optimize, stats

from mh_phone.baselines import fit_gmm, fit_gmm_lda, sample_gmm, sample_gmm_lda
from mh_phone.cli import main
from mh_phone.corpus import synth_corpus
from mh_phone.discriminator import LN2, GruNet, bce_loss, evaluate_generator, gru_grad
from mh_phone.estimation import (LOG_SIGMA_HI, LOG_SIGMA_LO,
                                 markov_chain_sample, map_sigma)
from mh_phone.interpret import expected_counts, expected_hold_length
from mh_phone.model import (e_step_greedy, e_step_viterbi, fit_em,
                            joint_path_score, m_step, sample)
from mh_phone.params import Hyperparams, make_truth_params

from helpers import (align_states, corpus_from_features, emission_table, random_corpus,
                     random_params)


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------- parameter recovery
# M=300 signs from a well-separated 5-state truth with sigma=0.1;
# pi and T within 0.05 max-abs, mu within 0.1 after row alignment; < 60 s.

def test_parameter_recovery_well_separated_truth():
    start = time.perf_counter()
    truth = make_truth_params(5, 14, seed=101, sigma=0.1)
    corpus, _ = synth_corpus(truth, 300, 102)
    params, _, report = fit_em(corpus, 5, seed=103)
    elapsed = time.perf_counter() - start
    perm = align_states(params.mu, truth.mu)
    err_pi = float(np.max(np.abs(params.pi[perm] - truth.pi)))
    err_t = float(np.max(np.abs(params.trans[np.ix_(perm, perm)] - truth.trans)))
    err_mu = float(np.max(np.abs(params.mu[perm] - truth.mu)))
    ok = err_pi < 0.05 and err_t < 0.05 and err_mu < 0.1 and elapsed < 60.0
    _verdict("parameter recovery", ok,
             f"max|dpi|={err_pi:.4f} max|dT|={err_t:.4f} max|dmu|={err_mu:.4f} "
             f"iters={report.iterations} time={elapsed:.1f}s "
             f"(need <0.05/<0.05/<0.1, <60s)")


# ------------------------------------------------- E-step oracles
# 100 random instances with N<=4, P<=5: Viterbi equals exhaustive path
# enumeration exactly; greedy equals the per-step exhaustive argmax exactly.

def _enumerate_path(params, frames, loglik):
    p, n = loglik.shape
    best, best_score = None, -math.inf
    for path in itertools.product(range(n), repeat=p):
        w = params.pi[path[0]]
        score = (math.log(w) if w > 0 else -math.inf) + loglik[0, path[0]]
        for f in range(1, p):
            w = params.trans[path[f - 1], path[f]]
            score += (math.log(w) if w > 0 else -math.inf) + loglik[f, path[f]]
        if score > best_score:
            best, best_score = path, score
    return np.asarray(best)


def _stepwise_path(params, frames, loglik):
    p, n = loglik.shape
    out = np.empty(p, dtype=np.int64)
    for f in range(p):
        best, best_score = None, -math.inf
        for j in range(n):
            w = params.pi[j] if f == 0 else params.trans[out[f - 1], j]
            score = (math.log(w) if w > 0 else -math.inf) + loglik[f, j]
            if score > best_score:
                best, best_score = j, score
        out[f] = best
    return out


def test_e_steps_match_exhaustive_oracles():
    rng = np.random.default_rng(104)
    instances = 100
    mismatches = 0
    for _ in range(instances):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        params = random_params(rng, n, d)
        frames = rng.normal(size=(1, p, d))
        corpus = corpus_from_features(frames)
        cov = np.diag(params.sigma)
        loglik = np.stack([stats.multivariate_normal.logpdf(frames[0], params.mu[j], cov)
                           for j in range(n)], axis=1).reshape(p, n)
        vit = e_step_viterbi(params, emission_table(params, corpus))[0]
        greedy = e_step_greedy(params, emission_table(params, corpus))[0]
        if not np.array_equal(vit, _enumerate_path(params, frames[0], loglik)):
            mismatches += 1
        if not np.array_equal(greedy, _stepwise_path(params, frames[0], loglik)):
            mismatches += 1
    _verdict("e-step oracles", mismatches == 0,
             f"{instances} instances, {mismatches} mismatches (need 0)")


# ------------------------------------------------- M-step equivalence
# Closed-form pi/T/mu match direct numerical maximization within 1e-6;
# the sigma search matches a dense grid within 1e-5 in log sigma. 50 fixtures.

def _simplex_argmax(weights):
    """Numerically maximize sum(w log p) over the probability simplex."""
    n = weights.shape[0]
    with warnings.catch_warnings():
        # SLSQP warns when its line search momentarily leaves the box
        warnings.simplefilter("ignore", RuntimeWarning)
        res = optimize.minimize(
            lambda q: -float(np.dot(weights, np.log(np.maximum(q, 1e-300)))),
            np.full(n, 1.0 / n),
            jac=lambda q: -(weights / np.maximum(q, 1e-300)),
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda q: q.sum() - 1.0,
                          "jac": lambda q: np.ones(n)}],
            options={"ftol": 1e-16, "maxiter": 1000},
        )
    return res.x


def _grid_log_sigma(ssr, n_obs, hyper):
    def log_post(t):
        return (-0.5 * n_obs * t - 0.5 * ssr * np.exp(-t)
                - t - (t - hyper.mu_sigma) ** 2 / (2 * hyper.sigma_sigma ** 2))

    coarse = np.linspace(LOG_SIGMA_LO, LOG_SIGMA_HI, 200001)
    t0 = coarse[np.argmax(log_post(coarse))]
    fine = np.linspace(t0 - 2e-3, t0 + 2e-3, 400001)
    return fine[np.argmax(log_post(fine))]


def test_m_step_updates_match_numerical_maximization():
    rng = np.random.default_rng(105)
    fixtures = 50
    worst_cat, worst_mu, worst_sigma = 0.0, 0.0, 0.0
    for _ in range(fixtures):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 7))
        p = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        # alpha > 1 keeps the Dirichlet mode off the simplex boundary, where
        # the constrained optimizer is reliable
        hyper = Hyperparams(alpha=float(rng.uniform(1.2, 3.0)),
                            mu_mu=float(rng.normal(0, 0.5)),
                            sigma_mu=float(rng.uniform(2.0, 12.0)))
        prev = random_params(rng, n, d)
        corpus = corpus_from_features(rng.normal(size=(m, p, d)))
        labels = rng.integers(0, n, size=(m, p))
        labels[:n, 0] = np.arange(n)  # every state starts and leaves at least once
        out = m_step(corpus, labels, hyper, prev)

        first = np.bincount(labels[:, 0], minlength=n) + hyper.alpha - 1.0
        worst_cat = max(worst_cat, float(np.max(np.abs(out.pi - _simplex_argmax(first)))))
        pairs = np.zeros((n, n))
        np.add.at(pairs, (labels[:, :-1].ravel(), labels[:, 1:].ravel()), 1.0)
        for i in range(n):
            best = _simplex_argmax(pairs[i] + hyper.alpha - 1.0)
            worst_cat = max(worst_cat, float(np.max(np.abs(out.trans[i] - best))))

        flat = corpus.features.reshape(-1, d)
        for state in range(1, n):
            sel = flat[labels.ravel() == state]
            for dim in range(d):

                def neg(mval, sel=sel, dim=dim):
                    lik = np.sum((sel[:, dim] - mval) ** 2) / (2 * prev.sigma[dim])
                    return lik + (mval - hyper.mu_mu) ** 2 / (2 * hyper.sigma_mu ** 2)

                res = optimize.minimize_scalar(neg, bounds=(-50, 50), method="bounded",
                                               options={"xatol": 1e-10})
                worst_mu = max(worst_mu, abs(float(out.mu[state, dim]) - res.x))

        resid = flat - out.mu[labels.ravel()]
        ssr = (resid ** 2).sum(axis=0)
        for dim in range(d):
            t_grid = _grid_log_sigma(float(ssr[dim]), flat.shape[0], hyper)
            worst_sigma = max(worst_sigma, abs(math.log(out.sigma[dim]) - t_grid))

    ok = worst_cat < 1e-6 and worst_mu < 1e-6 and worst_sigma < 1e-5
    _verdict("m-step equivalence", ok,
             f"{fixtures} fixtures, max|dcat|={worst_cat:.2e} "
             f"max|dmu|={worst_mu:.2e} max|dlogsigma|={worst_sigma:.2e} "
             f"(need <1e-6, <1e-6, <1e-5)")


# ------------------------------------------------- interpretation oracles
# Hold lengths within 3 SE of empirical run lengths over 1e5 transitions;
# expected counts sum to the horizon exactly and match Monte Carlo within 3 SE.

def test_interpretation_matches_monte_carlo():
    rng = np.random.default_rng(110)
    params = random_params(rng, 4, 2)

    chains = markov_chain_sample(rng, params.pi, params.trans, 100, 1001)
    worst_hold = 0.0
    for state in range(4):
        runs = []
        for row in chains:
            length = 0
            for value in row:
                if value == state:
                    length += 1
                elif length:
                    runs.append(length)
                    length = 0
        runs = np.asarray(runs, dtype=float)
        want = expected_hold_length(params, state)
        se = runs.std(ddof=1) / math.sqrt(len(runs))
        worst_hold = max(worst_hold, abs(runs.mean() - want) / se)

    horizon = 20
    counts = expected_counts(params, horizon)
    sum_err = abs(float(counts.sum()) - horizon)
    mc = markov_chain_sample(rng, params.pi, params.trans, 100000, horizon)
    worst_counts = 0.0
    for state in range(4):
        per_chain = (mc == state).sum(axis=1)
        se = per_chain.std(ddof=1) / math.sqrt(mc.shape[0])
        worst_counts = max(worst_counts, abs(per_chain.mean() - counts[state]) / se)

    ok = worst_hold < 3.0 and sum_err < 1e-9 and worst_counts < 3.0
    _verdict("interpretation oracles", ok,
             f"hold max z={worst_hold:.2f} counts max z={worst_counts:.2f} "
             f"|sum-K|={sum_err:.1e} (need z<3, z<3, <1e-9)")


# ------------------------------------------------- generator ordering
# With a sequence-model "real" corpus, the fitted sequence model must beat
# both frame mixtures by >= 0.1 test BCE, an identical-distribution generator
# must sit at chance (0.693 +/- 0.08), and the whole round < 5 minutes.

def test_generator_ordering_at_desk_scale():
    start = time.perf_counter()
    truth = make_truth_params(5, 14, seed=106, sigma=0.1)
    real, _ = synth_corpus(truth, 600, 107)
    p = real.dims[1]

    dbn, _, _ = fit_em(real, 5, seed=108)
    gmm, _ = fit_gmm(real, 5, seed=108)
    lda, _ = fit_gmm_lda(real, 5, 10, seed=108)

    generators = {
        "dbn": lambda n, s: sample(dbn, n, n_frames=p, seed=s),
        "gmm": lambda n, s: sample_gmm(gmm, n, n_frames=p, seed=s),
        "gmm-lda": lambda n, s: sample_gmm_lda(lda, n, n_frames=p, seed=s),
        "chance": lambda n, s: sample(truth, n, n_frames=p, seed=s),
    }
    # 30 epochs: at this corpus size, longer training makes the discriminator
    # memorize its training split and pushes even the chance generator past
    # the 0.693 +/- 0.08 band on held-out signs.
    bce = {name: evaluate_generator(real, gen, epochs=30, seed=109).bce_mean
           for name, gen in generators.items()}
    elapsed = time.perf_counter() - start

    gap_gmm = bce["dbn"] - bce["gmm"]
    gap_lda = bce["dbn"] - bce["gmm-lda"]
    chance_err = abs(bce["chance"] - LN2)
    ok = (gap_gmm >= 0.1 and gap_lda >= 0.1 and chance_err <= 0.08
          and elapsed < 300.0)
    _verdict("generator ordering", ok,
             f"bce dbn={bce['dbn']:.3f} gmm={bce['gmm']:.3f} "
             f"gmm-lda={bce['gmm-lda']:.3f} chance={bce['chance']:.3f} "
             f"time={elapsed:.0f}s (need gaps >=0.1, chance within 0.08, <300s)")


# ------------------------------------------------- gradient check
# Every parameter block of the discriminator passes central finite
# differences (eps=1e-5) within 1e-4 relative error.

def test_discriminator_gradient_finite_differences():
    rng = np.random.default_rng(111)
    net = GruNet.random(14, 16, rng)
    net.b_z[:] = rng.normal(0, 0.1, size=16)
    net.b_r[:] = rng.normal(0, 0.1, size=16)
    net.b_c[:] = rng.normal(0, 0.1, size=16)
    net.theta[-1] = 0.05
    batch = rng.normal(size=(8, 6, 14))
    labels = (np.arange(8) % 2).astype(float)

    analytic = gru_grad(net, batch, labels).as_vector()
    eps = 1e-5
    theta = net.as_vector()
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        numeric[i] = (bce_loss(net.from_vector(up), batch, labels)
                      - bce_loss(net.from_vector(down), batch, labels)) / (2 * eps)

    worst, worst_name = 0.0, ""
    offset = 0
    for name in ("w_z", "w_r", "w_c", "b_z", "b_r", "b_c", "w_out", "b_out"):
        size = np.asarray(getattr(net, name)).size
        sl = slice(offset, offset + size)
        offset += size
        a, nvec = analytic[sl], numeric[sl]
        rel = np.linalg.norm(a - nvec) / max(np.linalg.norm(a),
                                             np.linalg.norm(nvec), 1e-12)
        if rel > worst:
            worst, worst_name = rel, name
    _verdict("discriminator gradients", worst < 1e-4,
             f"worst block {worst_name} rel err {worst:.2e} (need <1e-4)")


# ------------------------------------------------- byte determinism
# Re-running the full pipeline with the same seed and different --threads
# must produce byte-identical JSON artifacts.

def test_pipeline_byte_determinism(tmp_path, monkeypatch):
    artifacts = ("corpus.jsonl", "model.json", "gen.jsonl",
                 "report.json", "interp.json")
    runs = []
    for tag, threads in (("t1", "1"), ("t2", "2"), ("t8", "8")):
        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["synth", "--n-states", "4", "--m-signs", "40",
                     "--p-frames", "12", "--out", "corpus.jsonl",
                     "--seed", "17"]) == 0
        assert main(["train", "--corpus", "corpus.jsonl", "--out", "model.json",
                     "--n-states", "4", "--max-iters", "25", "--seed", "17",
                     "--threads", threads]) == 0
        assert main(["generate", "--model", "model.json", "--n", "12",
                     "--p-frames", "12", "--out", "gen.jsonl",
                     "--seed", "17"]) == 0
        assert main(["evaluate", "--real", "corpus.jsonl", "--model", "model.json",
                     "--report", "report.json", "--seeds", "2", "--epochs", "3",
                     "--hidden", "4", "--seed", "17"]) == 0
        assert main(["interpret", "--model", "model.json", "--out", "interp.json",
                     "--seed", "17"]) == 0
        runs.append({name: (workdir / name).read_bytes() for name in artifacts})
    same12 = runs[0] == runs[1]
    same18 = runs[0] == runs[2]
    _verdict("pipeline determinism", same12 and same18,
             f"threads 1 vs 2 identical={same12}, 1 vs 8 identical={same18} "
             f"over {len(artifacts)} artifacts (need identical bytes)")


# ------------------------------------------------- EM monotonicity
# With the exact Viterbi E-step the log-joint trace never decreases by more
# than 1e-9 per step, across 20 random corpora.

def test_viterbi_em_objective_monotone():
    rng = np.random.default_rng(112)
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            corpus = random_corpus(rng, int(rng.integers(8, 25)),
                                   int(rng.integers(4, 10)),
                                   int(rng.integers(1, 4)))
        else:
            truth = make_truth_params(3, 4, seed=int(rng.integers(1 << 30)),
                                      sigma=0.2)
            corpus, _ = synth_corpus(truth, int(rng.integers(10, 30)),
                                     int(rng.integers(1 << 30)), n_frames=8)
        _, _, report = fit_em(corpus, int(rng.integers(2, 5)), max_iters=40,
                              tol=0.0, e_step="viterbi",
                              seed=int(rng.integers(1 << 30)))
        trace = np.asarray(report.log_joint_trace)
        if trace.size > 1:
            worst = max(worst, float(np.max(-np.diff(trace))))
    _verdict("viterbi monotonicity", worst <= 1e-9,
             f"20 corpora, worst per-step decrease {worst:.2e} (need <=1e-9)")

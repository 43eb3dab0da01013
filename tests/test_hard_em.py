"""The shared hard-EM driver and its stop rule, through all three fitters."""

import math

import numpy as np
import pytest

from mh_phone.baselines import fit_gmm, fit_gmm_lda
from mh_phone.errors import InvariantViolation
from mh_phone.estimation import hard_em
from mh_phone.model import fit_em
from mh_phone.params import Hyperparams

from helpers import random_corpus

FITTERS = {
    "dbn": lambda corpus, hyper, **kw: fit_em(corpus, 3, hyper, seed=1, **kw)[2],
    "gmm": lambda corpus, hyper, **kw: fit_gmm(corpus, 3, hyper, seed=1, **kw)[1],
    "gmm-lda": lambda corpus, hyper, **kw: fit_gmm_lda(corpus, 3, 2, hyper, seed=1, **kw)[1],
}


@pytest.mark.parametrize("objectives, tol, iterations, converged", [
    ([1.0, 2.0, 2.0, 3.0], 0.0, 3, True),       # an exact repeat meets tol = 0
    ([1.0, 2.0, 2.5, 2.5], 0.25, 3, True),      # relative change equal to tol
    ([1.0, 2.0, 3.0, 4.0], 0.0, 4, False),      # out of iterations
    ([1.0, math.inf, 3.0], 0.0, 2, False),      # non-finite objective
    ([1.0, math.nan, 3.0], 0.0, 2, False),
    ([-math.inf, 1.0], math.inf, 1, False),     # non-finite on the first iteration
    ([1.0, 2.0], math.inf, 1, False),           # no previous objective to compare
])
def test_hard_em_stop_rule(objectives, tol, iterations, converged):
    values = iter(objectives)
    lasts = []
    report = hard_em(lambda last: lasts.append(last) or next(values), 4, tol)
    assert report.iterations == len(report.log_joint_trace) == iterations
    assert report.converged is converged
    # only the 4th call may be the last; a fit that stops earlier never sees it
    assert lasts == [False] * min(iterations, 3) + [True] * (iterations == 4)


def test_nan_tol_is_rejected_before_the_first_step():
    # no relative change compares with NaN, so the loop would stop after one
    # iteration as if it had converged
    calls = []
    with pytest.raises(InvariantViolation, match="tol must not be NaN"):
        hard_em(lambda last: calls.append(1) or 1.0, 4, math.nan)
    assert calls == []


def test_a_one_iteration_fit_is_last_on_its_first_call():
    lasts = []
    report = hard_em(lambda last: lasts.append(last) or 1.0, 1, -1.0)
    assert report.iterations == 1 and lasts == [True]


@pytest.mark.parametrize("kind", sorted(FITTERS))
def test_zero_tol_converges_on_a_repeated_objective(kind):
    corpus = random_corpus(np.random.default_rng(0), 12, 6, 2)
    report = FITTERS[kind](corpus, Hyperparams(), max_iters=100, tol=0.0)
    trace = report.log_joint_trace
    assert report.iterations < 100
    assert trace[-1] == trace[-2]
    assert report.converged


@pytest.mark.parametrize("kind", ["dbn", "gmm-lda"])
def test_non_finite_objective_stops_at_once_unconverged(kind):
    # alpha < 1 lets a Dirichlet row reach exact zeros, and its prior density
    # there is +inf.
    corpus = random_corpus(np.random.default_rng(0), 12, 6, 2)
    report = FITTERS[kind](corpus, Hyperparams(alpha=0.5), max_iters=100, tol=1e-6)
    trace = report.log_joint_trace
    assert trace[-1] == math.inf
    assert all(math.isfinite(v) for v in trace[:-1])
    assert report.iterations == len(trace) < 100
    assert not report.converged


@pytest.mark.parametrize("kind", sorted(FITTERS))
def test_max_iters_below_one_is_rejected(kind):
    corpus = random_corpus(np.random.default_rng(0), 12, 6, 2)
    with pytest.raises(InvariantViolation, match="max_iters must be at least 1, got 0"):
        FITTERS[kind](corpus, Hyperparams(), max_iters=0, tol=1e-6)

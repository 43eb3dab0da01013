"""Parameter container validation and the synthetic ground-truth builder."""

import numpy as np
import pytest

from mh_phone.errors import InvariantViolation
from mh_phone.params import (Assignment, FitReport, GmmLdaParams, GmmParams,
                             Hyperparams, ModelParams, make_truth_params)

from helpers import random_params


def test_hyperparams_defaults():
    h = Hyperparams()
    assert h.alpha == 1.0
    assert h.mu_mu == 0.0
    assert h.sigma_mu == 10.0
    assert h.mu_sigma == 1.0
    assert h.sigma_sigma == 10.0


def test_hyperparams_round_trip_and_validation():
    h = Hyperparams(alpha=2.0, mu_mu=-1.0, sigma_mu=3.0, mu_sigma=0.5,
                    sigma_sigma=4.0)
    assert Hyperparams.from_dict(h.to_dict()) == h
    for bad in (dict(alpha=0.0), dict(sigma_mu=-1.0), dict(sigma_sigma=0.0)):
        with pytest.raises(InvariantViolation):
            Hyperparams(**bad)


_VALID = {
    GmmParams: dict(weights=[0.25, 0.75], mu=[[0.0, 1.0], [2.0, 3.0]], sigma=[0.5, 0.5]),
    GmmLdaParams: dict(topic_word=[[0.1, 0.9], [0.6, 0.4]], topic_freq=[0.3, 0.7],
                       doc_topic_prior=1.0, word_prior=2.0, mu=[[0.0], [1.0]],
                       sigma=[0.25]),
    Hyperparams: dict(alpha=1.0, mu_mu=0.0, sigma_mu=10.0, mu_sigma=1.0,
                      sigma_sigma=10.0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("cls, field", [(cls, name) for cls, kwargs in _VALID.items()
                                        for name in kwargs])
def test_every_field_rejects_non_finite_values(cls, field, bad):
    kwargs = dict(_VALID[cls])
    value = np.array(kwargs[field], dtype=float)
    value[(-1,) * value.ndim] = bad
    kwargs[field] = value if value.ndim else float(value)
    with pytest.raises(InvariantViolation, match=f"^{field} has non-finite entries$"):
        cls(**kwargs)


def test_model_params_accepts_valid_input():
    rng = np.random.default_rng(0)
    params = random_params(rng, 4, 6)
    assert params.n_states == 4
    assert params.n_features == 6
    assert not params.mu[0].any()


def test_model_params_rejects_bad_rows():
    d = 3
    good_pi = np.array([0.5, 0.5])
    good_t = np.full((2, 2), 0.5)
    good_mu = np.vstack([np.zeros(d), np.ones(d)])
    good_sigma = np.ones(d)
    with pytest.raises(InvariantViolation, match="pi"):
        ModelParams(pi=[0.5, 0.6], trans=good_t, mu=good_mu, sigma=good_sigma)
    with pytest.raises(InvariantViolation, match="trans row 1"):
        ModelParams(pi=good_pi, trans=[[0.5, 0.5], [0.9, 0.2]],
                    mu=good_mu, sigma=good_sigma)
    with pytest.raises(InvariantViolation, match="negative"):
        ModelParams(pi=[1.5, -0.5], trans=good_t, mu=good_mu, sigma=good_sigma)
    with pytest.raises(InvariantViolation, match="row 0"):
        ModelParams(pi=good_pi, trans=good_t, mu=np.ones((2, d)),
                    sigma=good_sigma)
    with pytest.raises(InvariantViolation, match="sigma"):
        ModelParams(pi=good_pi, trans=good_t, mu=good_mu, sigma=[1.0, 0.0, 1.0])
    with pytest.raises(InvariantViolation, match="non-finite"):
        ModelParams(pi=good_pi, trans=good_t,
                    mu=np.vstack([np.zeros(d), [np.inf, 1.0, 1.0]]),
                    sigma=good_sigma)


def test_model_params_sum_tolerance_is_tight():
    pi = np.array([0.5, 0.5 + 2e-9])
    with pytest.raises(InvariantViolation):
        ModelParams(pi=pi, trans=np.full((2, 2), 0.5),
                    mu=np.vstack([np.zeros(2), np.ones(2)]), sigma=np.ones(2))


def test_model_params_arrays_frozen():
    params = random_params(np.random.default_rng(1), 3, 4)
    for arr in (params.pi, params.trans, params.mu, params.sigma):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.5


def test_model_params_dict_round_trip():
    params = random_params(np.random.default_rng(2), 3, 5)
    back = ModelParams.from_dict(params.to_dict())
    assert np.array_equal(back.pi, params.pi)
    assert np.array_equal(back.trans, params.trans)
    assert np.array_equal(back.mu, params.mu)
    assert np.array_equal(back.sigma, params.sigma)


def test_assignment_validation():
    a = Assignment(labels=[[0, 1], [2, 0]])
    assert a.shape == (2, 2)
    assert a.labels.dtype == np.int64
    with pytest.raises(ValueError):
        a.labels[0, 0] = 3
    with pytest.raises(InvariantViolation):
        Assignment(labels=[0, 1, 2])
    with pytest.raises(InvariantViolation):
        Assignment(labels=[[0, -1]])


def test_fit_report_fields():
    rep = FitReport(iterations=3, log_joint_trace=[1.0, 2.0, 2.5], converged=True)
    assert rep.iterations == len(rep.log_joint_trace)
    assert rep.converged


def test_make_truth_absorbing_end_and_stochastic_rows():
    truth = make_truth_params(5, 8, seed=3)
    assert truth.trans[0, 0] == 1.0
    assert np.allclose(truth.pi.sum(), 1.0)
    assert np.allclose(truth.trans.sum(axis=1), 1.0)
    assert truth.pi[0] == 0.0
    for i in range(1, 5):
        assert truth.trans[i, i] == pytest.approx(0.85)
        assert truth.trans[i, 0] == pytest.approx(0.06)


def test_make_truth_separation_and_pinned_dims():
    truth = make_truth_params(4, 6, seed=5, separation=2.5)
    dists = np.linalg.norm(truth.mu[:, None] - truth.mu[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() >= 2.5
    assert not truth.mu[:, :2].any()
    assert np.allclose(truth.sigma, 0.05)


def test_make_truth_deterministic_and_validated():
    a = make_truth_params(3, 4, seed=9)
    b = make_truth_params(3, 4, seed=9)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.trans, b.trans)
    with pytest.raises(InvariantViolation):
        make_truth_params(1, 4)

"""Parameter container validation, the synthetic ground-truth builder and
the count and number rules."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from mh_phone import baselines, model
from mh_phone.baselines import fit_gmm, fit_gmm_lda
from mh_phone.errors import InvariantViolation
from mh_phone.estimation import hard_em
from mh_phone.interpret import expected_counts, expected_hold_length, summarize
from mh_phone.model import fit_em, init_params
from mh_phone.params import (FitReport, GmmLdaParams, GmmParams, Hyperparams, ModelParams,
                             check_number, make_truth_params)

from helpers import random_corpus, random_params


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


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 1), (2, 3)])
def test_make_truth_places_prototypes_in_few_features(n, d):
    # with two features neither is pinned: pinned, they left no room
    truth = make_truth_params(n, d, seed=1)
    dists = np.linalg.norm(truth.mu[:, None] - truth.mu[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert truth.mu.shape == (n, d) and dists.min() >= 2.0
    assert (d > 2) == (not truth.mu[:, :2].any())


@pytest.mark.parametrize("separation", [1e200, 1e300, 1e308])
def test_make_truth_rejects_a_separation_whose_distances_overflow(separation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation,
                           match=re.escape(f"separation {separation:g} is too large")):
            make_truth_params(4, 6, seed=5, separation=separation)


def test_make_truth_deterministic_and_validated():
    a = make_truth_params(3, 4, seed=9)
    b = make_truth_params(3, 4, seed=9)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.trans, b.trans)
    with pytest.raises(InvariantViolation):
        make_truth_params(1, 4)


# SHA-256 of pi, trans and mu's bytes, recorded before the transition rows
# were drawn in one call: the 2-state row, an end probability above
# 1 - self_stick, self_stick = 1 and one feature each keep their bytes.
_TRUTH_DIGESTS = [
    ((2, 14, 0, {}), "47933b9010a2be7f848d8501600429694869ffd107bf59e89562f454cf174df6"),
    ((2, 1, 4, dict(self_stick=1.0)),
     "aa0b73b5b59a92ac52b5395851552275051c05f79a50cb28ecae718aba7d497b"),
    ((3, 14, 1, {}), "1fd437b2f7a32180149429665329186844e5b7ed29bd68a4a548715641d221f4"),
    ((3, 5, 2, dict(end_prob=0.3)),
     "5dab802f5b9de6cc80b3f4681fdaa5e6c5ed73dad3cdeb85973175d1244a70da"),
    ((3, 1, 6, dict(self_stick=1.0, separation=1.0)),
     "21e481005d849df5d0d58d1169903b9b0fe2db593431cd0bafab69b155bd9069"),
    ((10, 14, 0, {}), "2452fcb7314dcc0dceb85fda0edd836d962ecedac77b5372aa7089c70e2bfb53"),
    ((10, 5, 8, dict(self_stick=0.6, end_prob=0.5, separation=1.0)),
     "e11f09cd3f1b260922a0c4ad427a725421624754a7801813d3c209c9dd8fcd3f"),
    ((12, 14, 3, dict(self_stick=0.7, end_prob=0.1)),
     "91601e1ed14c5a1195c0b4d21194cecf1433a76353b0e9c9ff42b017c8fb78bb"),
]


@pytest.mark.parametrize("args, digest", _TRUTH_DIGESTS,
                         ids=[f"n{n}-d{d}-seed{s}" for (n, d, s, _), _ in _TRUTH_DIGESTS])
def test_make_truth_keeps_its_bytes(args, digest):
    n, d, seed, options = args
    truth = make_truth_params(n, d, seed=seed, **options)
    data = b"".join(a.tobytes() for a in (truth.pi, truth.trans, truth.mu))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("args, options, message", [
    ((4, 0), {}, "n_features must be at least 1, got 0"),
    ((10, 3), dict(seed=8, separation=1.0),
     "could not place prototypes at the requested separation"),
], ids=["no-features", "unplaceable"])
def test_make_truth_rejects_what_it_cannot_build(args, options, message):
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        make_truth_params(*args, **options)


@pytest.mark.parametrize("field, value, message", [
    ("trans", np.full((2, 3), 0.5), "trans must be square and match len(pi)"),
    ("mu", np.zeros((3, 2)), "mu must have one row per state"),
    ("mu", np.zeros(2), "mu must have one row per state"),
], ids=["trans-not-square", "mu-rows", "mu-not-2d"])
def test_model_params_rejects_shapes_that_do_not_match_pi(field, value, message):
    kwargs = dict(pi=[0.5, 0.5], trans=np.full((2, 2), 0.5), mu=np.zeros((2, 2)),
                  sigma=np.ones(2))
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        ModelParams(**dict(kwargs, **{field: value}))


@pytest.mark.parametrize("cls, field, value", [
    (GmmParams, "mu", [[0.0, 1.0], [2.0]]),
    (GmmLdaParams, "topic_word", [[0.1, 0.9], [1.0]]),
    (Hyperparams, "alpha", [1.0]),
    (Hyperparams, "sigma_mu", "ten"),
    (GmmLdaParams, "word_prior", 10 ** 400),
], ids=["ragged-mu", "ragged-topic-word", "list-for-float", "word-for-float", "huge-int"])
def test_constructor_reports_values_that_are_not_numbers(cls, field, value):
    with pytest.raises(InvariantViolation, match=f"^{field} must be a"):
        cls(**dict(_VALID[cls], **{field: value}))


@pytest.mark.parametrize("cls, field, value", [
    (GmmParams, "sigma", ["0.5", "0.5"]),
    (GmmParams, "weights", [True, 0.0]),
    (GmmParams, "mu", [[0.0, 1.0], [2.0, [3.0]]]),
    (GmmParams, "mu", {"rows": 2}),
    (GmmParams, "mu", [[0.0, 1.0], [2.0]]),
    (GmmLdaParams, "doc_topic_prior", [1.0]),
    (GmmLdaParams, "word_prior", None),
    (Hyperparams, "alpha", True),
    (Hyperparams, "mu_mu", "0.0"),
])
def test_from_dict_takes_json_numbers_only(cls, field, value):
    with pytest.raises(InvariantViolation, match=f"^{field} must be a"):
        cls.from_dict(dict(_VALID[cls], **{field: value}))


def test_from_dict_takes_integers_as_numbers():
    back = GmmParams.from_dict(dict(_VALID[GmmParams], mu=[[0, 1], [2, 3]], sigma=[1, 2]))
    np.testing.assert_array_equal(back.mu, [[0.0, 1.0], [2.0, 3.0]])
    assert back.sigma.dtype == float


def test_emission_needs_at_least_one_feature():
    with pytest.raises(InvariantViolation, match="sigma must have one entry for each of D >= 1"):
        GmmParams(weights=[1.0], mu=[[]], sigma=[])


_CORPUS = random_corpus(np.random.default_rng(96), 12, 5, 2)
_PARAMS = random_params(np.random.default_rng(97), 3, 2)

# (argument, least, valid, call): call(value, steps) passes value as the
# argument and a valid value for every other count; hard_em's step records
# its `last` flags in steps
_COUNTS = [
    ("max_iters", 1, 2, lambda v, steps: hard_em(lambda last: steps.append(last) or 1.0, v, 0.0)),
    ("n_states", 2, 3, lambda v, steps: init_params(v, _CORPUS, seed=1)),
    ("n_states", 2, 3, lambda v, steps: fit_em(_CORPUS, v, max_iters=2, seed=1)),
    ("max_iters", 1, 2, lambda v, steps: fit_em(_CORPUS, 3, max_iters=v, seed=1)),
    ("threads", 1, 2, lambda v, steps: fit_em(_CORPUS, 3, max_iters=2, seed=1, threads=v)),
    ("n_components", 1, 3, lambda v, steps: fit_gmm(_CORPUS, v, seed=1, max_iters=2)),
    ("max_iters", 1, 2, lambda v, steps: fit_gmm(_CORPUS, 3, seed=1, max_iters=v)),
    ("threads", 1, 2, lambda v, steps: fit_gmm(_CORPUS, 3, seed=1, max_iters=2, threads=v)),
    ("n_components", 1, 3, lambda v, steps: fit_gmm_lda(_CORPUS, v, 2, seed=1, max_iters=2)),
    ("n_topics", 1, 2, lambda v, steps: fit_gmm_lda(_CORPUS, 3, v, seed=1, max_iters=2)),
    ("max_iters", 1, 2, lambda v, steps: fit_gmm_lda(_CORPUS, 3, 2, seed=1, max_iters=v)),
    ("threads", 1, 2,
     lambda v, steps: fit_gmm_lda(_CORPUS, 3, 2, seed=1, max_iters=2, threads=v)),
    ("n_states", 2, 3, lambda v, steps: make_truth_params(v, 3)),
    ("n_features", 1, 3, lambda v, steps: make_truth_params(3, v)),
    ("horizon", 1, 5, lambda v, steps: expected_counts(_PARAMS, v)),
    ("horizon", 1, 5, lambda v, steps: summarize(_PARAMS, horizon=v)),
    ("state", 0, 1, lambda v, steps: expected_hold_length(_PARAMS, v)),
]
_COUNT_IDS = ["hard_em", "init_params", "fit_em-n_states", "fit_em-max_iters", "fit_em-threads",
              "gmm-n_components", "gmm-max_iters", "gmm-threads", "lda-n_components",
              "lda-n_topics", "lda-max_iters", "lda-threads", "truth-n_states",
              "truth-n_features", "expected_counts", "summarize", "expected_hold_length"]


def _plain(result):
    """A fit, report or array result as plain values that compare with ==."""
    if isinstance(result, tuple):
        return tuple(map(_plain, result))
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return result.tolist() if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("bad, message", [
    (True, "must be an integer, got bool"), (2.7, "must be an integer, got float"),
    ("5", "must be an integer, got str"), (math.nan, "must be an integer, got float"),
    (None, "must be at least {least}, got {below}"),
], ids=["bool", "2.7", "str", "nan", "below"])
@pytest.mark.parametrize("name, least, valid, call", _COUNTS, ids=_COUNT_IDS)
def test_every_count_is_checked_by_one_rule_before_any_work(monkeypatch, name, least, valid,
                                                            call, bad, message):
    work = []

    def spy(*args, **kwargs):
        work.append(args)
        raise AssertionError("worked before checking the counts")

    for module in (model, baselines):
        monkeypatch.setattr(module, "seed_emissions", spy)
        monkeypatch.setattr(module, "emission_loglik", spy)
    if bad is None:  # one below the minimum
        bad = least - 1
        if name == "state":
            message = "must be in [0, 3), got -1"
    with pytest.raises(InvariantViolation,
                       match=f"^{name} {re.escape(message.format(least=least, below=bad))}$"):
        call(bad, work)
    assert work == []


@pytest.mark.parametrize("name, least, valid, call", _COUNTS, ids=_COUNT_IDS)
def test_numpy_integer_counts_run_as_the_int(name, least, valid, call):
    as_int, as_numpy = [], []
    expected = _plain(call(valid, as_int))
    assert _plain(call(np.int64(valid), as_numpy)) == expected
    assert as_numpy == as_int


def test_a_numpy_integer_horizon_is_reported_as_an_int():
    assert type(summarize(_PARAMS, horizon=np.int64(5)).horizon) is int


@pytest.mark.parametrize("value, message", [
    (True, "x must be positive, got True"), (np.bool_(True), "x must be positive, got "),
    ("abc", "x must be positive, got 'abc'"), (None, "x must be positive, got None"),
    ([1.0, 2.0], "x must be positive, got [1.0, 2.0]"), (10 ** 400, "x must be positive, got 1"),
    (-1, "x must be positive, got -1.0"), (math.nan, "x must be positive, got nan"),
], ids=["bool", "numpy-bool", "text", "none", "list", "too-big", "negative", "nan"])
def test_check_number_names_what_it_refuses(value, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}"):
        check_number("x", value, lambda v: v > 0, "positive")


def test_check_number_takes_what_float_converts():
    for value in (2, 2.0, "2", np.float32(2.0), np.int64(2)):
        number = check_number("x", value, lambda v: v > 0, "positive")
        assert number == 2.0 and type(number) is float

"""Hold lengths, horizon occupancy counts, and the report layer."""

import json
import math

import numpy as np
import pytest

from mh_phone.errors import AbsorbingState, InvariantViolation
from mh_phone.estimation import markov_chain_sample
from mh_phone.interpret import (DEFAULT_FRAME_MS, DEFAULT_HORIZON,
                                expected_counts, expected_hold_length,
                                format_report, summarize)
from mh_phone.io import validate_artifact
from mh_phone.params import ModelParams

from helpers import random_params


def _chain_params(pi, trans, d=2):
    pi = np.asarray(pi, dtype=float)
    n = pi.shape[0]
    mu = np.zeros((n, d))
    mu[1:] = np.arange(1, n)[:, None]
    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=np.ones(d))


def test_hold_length_known_values():
    trans = np.array([[0.5, 0.5], [0.2, 0.8]])
    params = _chain_params([0.5, 0.5], trans)
    assert expected_hold_length(params, 0) == pytest.approx(2.0)
    assert expected_hold_length(params, 1) == pytest.approx(5.0)
    solo = _chain_params([0.0, 1.0], [[0.1225, 0.8775], [0.1225, 0.8775]])
    assert expected_hold_length(solo, 1) == pytest.approx(8.1632653, abs=5e-4)


def test_hold_length_no_self_transition_is_one_frame():
    params = _chain_params([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    assert expected_hold_length(params, 0) == 1.0
    assert expected_hold_length(params, 1) == 1.0


def test_hold_length_errors():
    params = _chain_params([0.0, 1.0], [[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(AbsorbingState):
        expected_hold_length(params, 0)
    with pytest.raises(InvariantViolation):
        expected_hold_length(params, 2)
    with pytest.raises(InvariantViolation):
        expected_hold_length(params, -1)


def test_hold_length_matches_empirical_run_lengths():
    # Geometric-trials oracle: average length of maximal runs of each state
    # in long simulated chains.
    # Chains are long enough that dropping the right-censored final run
    # biases the mean far less than the Monte-Carlo error.
    rng = np.random.default_rng(70)
    trans = np.array([[0.6, 0.4], [0.3, 0.7]])
    params = _chain_params([0.5, 0.5], trans)
    chains = markov_chain_sample(rng, params.pi, params.trans, 40, 5000)
    for state in range(2):
        runs = []
        for row in chains:
            # run lengths of `state`, truncated runs at the end excluded
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
        assert abs(runs.mean() - want) < 3 * se


def test_expected_counts_sum_to_horizon():
    rng = np.random.default_rng(71)
    for _ in range(10):
        params = random_params(rng, int(rng.integers(2, 6)), 2)
        k = int(rng.integers(1, 40))
        counts = expected_counts(params, k)
        assert counts.sum() == pytest.approx(k, abs=1e-9)


def test_expected_counts_one_frame_is_start_distribution():
    rng = np.random.default_rng(72)
    params = random_params(rng, 4, 2)
    np.testing.assert_allclose(expected_counts(params, 1), params.pi)


def test_expected_counts_absorbing_start():
    params = _chain_params([0.0, 0.0, 1.0], np.eye(3))
    np.testing.assert_allclose(expected_counts(params, 12), [0.0, 0.0, 12.0])


def test_expected_counts_matches_monte_carlo():
    rng = np.random.default_rng(73)
    params = random_params(rng, 3, 2)
    k = 15
    chains = markov_chain_sample(rng, params.pi, params.trans, 100000, k)
    want = expected_counts(params, k)
    for state in range(3):
        per_chain = (chains == state).sum(axis=1)
        se = per_chain.std(ddof=1) / math.sqrt(chains.shape[0])
        assert abs(per_chain.mean() - want[state]) < 3 * se


def test_expected_counts_rejects_bad_horizon():
    params = random_params(np.random.default_rng(74), 3, 2)
    with pytest.raises(InvariantViolation):
        expected_counts(params, 0)


def test_summarize_ranking_and_end_prob():
    trans = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.1, 0.5]])
    params = _chain_params([0.0, 0.3, 0.7], trans)
    report = summarize(params)
    assert report.start_ranking == [2, 1]
    np.testing.assert_array_equal(report.end_prob, trans[:, 0])
    with_end = summarize(params, include_end_state=True)
    assert with_end.start_ranking == [2, 1, 0]
    assert report.horizon == DEFAULT_HORIZON
    assert report.frame_ms == DEFAULT_FRAME_MS


def test_summarize_ranking_ties_break_by_index():
    params = _chain_params([0.0, 0.5, 0.5], np.full((3, 3), 1 / 3))
    report = summarize(params, include_end_state=True)
    assert report.start_ranking == [1, 2, 0]


def test_summarize_dispersion_names_loosest_joint():
    n, d = 3, 14
    mu = np.zeros((n, d))
    mu[1:] = 1.0
    sigma = np.full(d, 0.01)
    sigma[10:12] = 0.5  # right wrist coordinates
    params = ModelParams(pi=[0.0, 0.5, 0.5], trans=np.full((n, n), 1 / 3),
                         mu=mu, sigma=sigma)
    report = summarize(params)
    assert report.dispersion_by_joint["right_wrist"] == pytest.approx(0.5)
    assert max(report.dispersion_by_joint, key=report.dispersion_by_joint.get) \
        == "right_wrist"
    text = format_report(report)
    assert "dispersion by joint: right_wrist=0.5" in text


def test_summarize_absorbing_state_noted_and_json_encodable():
    params = _chain_params([0.0, 1.0], [[1.0, 0.0], [0.06, 0.94]])
    report = summarize(params)
    assert report.hold_lengths_frames[0] == np.inf
    assert report.hold_lengths_ms[0] == np.inf
    assert any("absorbing" in note for note in report.notes)
    data = report.to_dict()
    assert data["hold_lengths_frames"][0] == "inf"
    assert data["hold_lengths_ms"][0] == "inf"
    json.dumps(data, allow_nan=False)
    assert data["hold_lengths_frames"][1] == pytest.approx(1 / 0.06)


def test_summarize_notes_on_horizon_and_feature_mismatch():
    params = random_params(np.random.default_rng(75), 3, 4)
    report = summarize(params, horizon=10)
    # a model file does not record the padded length P, so no note claims one
    assert not any("padded" in note for note in report.notes)
    assert any("does not split" in note for note in report.notes)
    assert report.dispersion_by_joint == {}


def test_summarize_rejects_bad_frame_ms():
    params = random_params(np.random.default_rng(76), 2, 2)
    with pytest.raises(InvariantViolation):
        summarize(params, frame_ms=0.0)


@pytest.mark.parametrize("frame_ms, shown", [
    ("x", "'x'"), (None, "None"), (True, "True"), (-1, "-1.0"), (math.inf, "inf"),
], ids=["text", "none", "bool", "negative", "inf"])
def test_summarize_names_a_frame_ms_it_cannot_use(frame_ms, shown):
    params = random_params(np.random.default_rng(77), 2, 2)
    with pytest.raises(InvariantViolation,
                       match=f"^frame_ms must be positive and finite, got {shown}$"):
        summarize(params, frame_ms=frame_ms)


def test_summarize_takes_a_frame_ms_that_float_converts():
    params = random_params(np.random.default_rng(78), 2, 2)
    report = summarize(params, frame_ms="98").to_dict()
    assert report == summarize(params, frame_ms=98.0).to_dict()


def test_summarize_hold_ms_scaling():
    trans = np.array([[0.5, 0.5], [0.2, 0.8]])
    params = _chain_params([0.5, 0.5], trans)
    report = summarize(params, frame_ms=98.0)
    np.testing.assert_allclose(report.hold_lengths_ms,
                               report.hold_lengths_frames * 98.0)
    assert report.hold_lengths_ms[1] == pytest.approx(490.0)


def test_format_report_layout():
    trans = np.array([[0.2, 0.8], [0.06, 0.94]])
    params = _chain_params([0.1, 0.9], trans)
    text = format_report(summarize(params, horizon=25))
    lines = text.splitlines()
    assert lines[0].split() == ["state", "hold", "(frames)", "hold", "(ms)",
                                "E[count]", "P(->", "end)"]
    assert len(lines) >= 4
    assert "start ranking (by pi): [1]" in text
    assert any(line.startswith("note:") for line in lines)


def test_report_passes_artifact_schema():
    params = random_params(np.random.default_rng(77), 4, 14)
    report = summarize(params)
    wrapped = {"format": "mh-interpret-report", "version": 1, **report.to_dict()}
    validate_artifact("interpret-report", wrapped)

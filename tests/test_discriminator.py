"""GRU discriminator: forward pass, exact gradients, training, evaluation."""

import hashlib
import logging
import math

import numpy as np
import pytest

from mh_phone.discriminator import (LN2, EvalReport, GruNet, _stratified_split,
                                    bce_loss, evaluate_generator, gru_forward,
                                    gru_forward_batch, gru_grad, train_gru)
from mh_phone.errors import EmptyBatch, InvariantViolation, NotEnoughData

from helpers import corpus_from_features


def test_zero_net_is_exactly_chance():
    net = GruNet.zeros(4, 3)
    seq = np.random.default_rng(0).normal(size=(6, 4))
    assert gru_forward(net, seq) == 0.5
    batch = np.random.default_rng(1).normal(size=(5, 6, 4))
    np.testing.assert_array_equal(gru_forward_batch(net, batch), 0.5)
    assert bce_loss(net, batch, np.array([1, 0, 1, 0, 1])) == LN2


def test_probability_strictly_inside_unit_interval():
    net = GruNet.zeros(2, 1)
    net.w_out = np.array([1e6])
    net.b_c = np.array([50.0])  # drives the hidden state to saturation
    seq = np.ones((4, 2))
    p = gru_forward(net, seq)
    assert 0.0 < p < 1.0
    net.w_out = np.array([-1e6])
    q = gru_forward(net, seq)
    assert 0.0 < q < 1.0


def test_forward_matches_hand_unrolled_recurrence():
    rng = np.random.default_rng(52)
    net = GruNet.random(3, 2, rng)
    net.b_z = rng.normal(size=2)
    net.b_r = rng.normal(size=2)
    net.b_c = rng.normal(size=2)
    net.b_out = 0.3
    seq = rng.normal(size=(2, 3))
    h = np.zeros(2)
    for t in range(2):
        joint = np.concatenate([seq[t], h])
        z = 1.0 / (1.0 + np.exp(-(joint @ net.w_z + net.b_z)))
        r = 1.0 / (1.0 + np.exp(-(joint @ net.w_r + net.b_r)))
        hc = np.tanh(np.concatenate([seq[t], r * h]) @ net.w_c + net.b_c)
        h = (1.0 - z) * hc + z * h
    logit = float(h @ net.w_out + net.b_out)
    want = 1.0 / (1.0 + math.exp(-logit))
    assert gru_forward(net, seq) == pytest.approx(want, abs=1e-12)


def test_vector_round_trip_and_length_check():
    rng = np.random.default_rng(2)
    net = GruNet.random(4, 3, rng)
    vec = net.as_vector()
    back = net.from_vector(vec)
    np.testing.assert_array_equal(back.as_vector(), vec)
    assert isinstance(back.b_out, float)
    with pytest.raises(InvariantViolation):
        net.from_vector(vec[:-1])


def test_net_validation():
    with pytest.raises(InvariantViolation):
        GruNet(w_z=np.zeros((3, 3)), w_r=np.zeros((3, 3)), w_c=np.zeros((3, 3)),
               b_z=np.zeros(3), b_r=np.zeros(3), b_c=np.zeros(3),
               w_out=np.zeros(3), b_out=0.0)  # no room for the input block
    with pytest.raises(InvariantViolation):
        GruNet(w_z=np.zeros((5, 2)), w_r=np.zeros((5, 3)), w_c=np.zeros((5, 2)),
               b_z=np.zeros(2), b_r=np.zeros(2), b_c=np.zeros(2),
               w_out=np.zeros(2), b_out=0.0)
    with pytest.raises(InvariantViolation):
        GruNet(w_z=np.full((4, 2), np.nan), w_r=np.zeros((4, 2)),
               w_c=np.zeros((4, 2)), b_z=np.zeros(2), b_r=np.zeros(2),
               b_c=np.zeros(2), w_out=np.zeros(2), b_out=0.0)


def _numeric_grad(net, batch, labels, eps=1e-5):
    theta = net.as_vector()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (bce_loss(net.from_vector(up), batch, labels)
                   - bce_loss(net.from_vector(down), batch, labels)) / (2 * eps)
    return grad


def _block_slices(net):
    out = {}
    offset = 0
    for name in ("w_z", "w_r", "w_c", "b_z", "b_r", "b_c", "w_out", "b_out"):
        size = np.asarray(getattr(net, name)).size
        out[name] = slice(offset, offset + size)
        offset += size
    return out


def test_gradients_match_finite_differences_blockwise():
    rng = np.random.default_rng(53)
    net = GruNet.random(4, 3, rng)
    net.b_z = rng.normal(0, 0.1, size=3)
    net.b_r = rng.normal(0, 0.1, size=3)
    net.b_c = rng.normal(0, 0.1, size=3)
    net.b_out = 0.1
    batch = rng.normal(size=(5, 3, 4))
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    analytic = gru_grad(net, batch, labels).as_vector()
    numeric = _numeric_grad(net, batch, labels)
    for name, sl in _block_slices(net).items():
        a, n = analytic[sl], numeric[sl]
        rel = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        assert rel < 1e-4, f"{name}: relative error {rel:.2e}"


def test_gradient_invariant_to_batch_duplication():
    rng = np.random.default_rng(54)
    net = GruNet.random(3, 2, rng)
    batch = rng.normal(size=(4, 5, 3))
    labels = np.array([1.0, 0.0, 0.0, 1.0])
    g1 = gru_grad(net, batch, labels).as_vector()
    g2 = gru_grad(net, np.concatenate([batch, batch]),
                  np.concatenate([labels, labels])).as_vector()
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_empty_batch_raises():
    net = GruNet.zeros(2, 2)
    empty = np.zeros((0, 4, 2))
    with pytest.raises(EmptyBatch):
        bce_loss(net, empty, np.zeros(0))
    with pytest.raises(EmptyBatch):
        gru_grad(net, empty, np.zeros(0))


def test_corpus_accepted_as_batch():
    rng = np.random.default_rng(55)
    corpus = corpus_from_features(rng.normal(size=(3, 4, 2)))
    net = GruNet.random(2, 2, rng)
    direct = gru_forward_batch(net, corpus.features)
    via_corpus = gru_forward_batch(net, corpus)
    np.testing.assert_array_equal(direct, via_corpus)


def test_training_reduces_loss_on_separable_data():
    rng = np.random.default_rng(56)
    pos = np.ones((10, 5, 2)) + rng.normal(0, 0.1, size=(10, 5, 2))
    neg = -np.ones((10, 5, 2)) + rng.normal(0, 0.1, size=(10, 5, 2))
    batch = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(10), np.zeros(10)])
    net0 = GruNet.random(2, 4, rng)
    before = net0.as_vector().copy()
    net, trace = train_gru(net0, batch, labels, epochs=60)
    assert len(trace) == 61
    assert trace[0] == pytest.approx(bce_loss(net0, batch, labels))
    assert trace[-1] < 0.1
    assert trace[-1] < trace[0]
    np.testing.assert_array_equal(net0.as_vector(), before)
    assert net is not net0


def test_train_deterministic():
    rng = np.random.default_rng(57)
    batch = rng.normal(size=(8, 4, 2))
    labels = (np.arange(8) % 2).astype(float)
    net = GruNet.random(2, 3, np.random.default_rng(58))
    a, trace_a = train_gru(net, batch, labels, epochs=10)
    b, trace_b = train_gru(net, batch, labels, epochs=10)
    np.testing.assert_array_equal(a.as_vector(), b.as_vector())
    assert trace_a == trace_b


def test_stratified_split_covers_both_classes():
    rng = np.random.default_rng(59)
    labels = np.array([1.0] * 7 + [0.0] * 13)
    train, test = _stratified_split(rng, labels, 0.8)
    assert len(np.intersect1d(train, test)) == 0
    assert sorted(np.concatenate([train, test])) == list(range(20))
    for part in (train, test):
        assert 0.0 in labels[part] and 1.0 in labels[part]
    assert (labels[train] == 1).sum() == 6
    assert (labels[test] == 1).sum() == 1


def _real_corpus(seed, m=30, p=6, d=3):
    rng = np.random.default_rng(seed)
    return corpus_from_features(rng.normal(size=(m, p, d)))


def test_evaluate_generator_chance_level_for_resampled_real_signs():
    # Fakes are resampled from a held-out pool of the same distribution, so
    # the discriminator has nothing real to latch onto.
    pool = np.random.default_rng(60).normal(size=(80, 6, 3))
    real = corpus_from_features(pool[:40])
    held_out = pool[40:]

    def resample(n, gen_seed):
        rng = np.random.default_rng(gen_seed)
        return held_out[rng.integers(0, held_out.shape[0], size=n)]

    report = evaluate_generator(real, resample, n_seeds=5, epochs=30, seed=61)
    assert abs(report.bce_mean - LN2) <= 0.08
    assert len(report.per_seed) == 5


def test_evaluate_generator_flags_obvious_fakes():
    real = _real_corpus(62)

    def constant(n, gen_seed):
        return np.full((n, 6, 3), 9.0)

    report = evaluate_generator(real, constant, n_seeds=3, epochs=50, seed=63)
    assert report.bce_mean < 0.1


def test_evaluate_generator_validation_and_report_fields():
    real = _real_corpus(64, m=12)
    small = _real_corpus(65, m=9)

    def ok(n, gen_seed):
        return np.zeros((n, 6, 3))

    with pytest.raises(NotEnoughData):
        evaluate_generator(small, ok, n_seeds=1)
    with pytest.raises(InvariantViolation):
        evaluate_generator(real, ok, n_seeds=1, split=1.0)
    with pytest.raises(InvariantViolation):
        evaluate_generator(real, lambda n, s: np.zeros((n, 6, 4)), n_seeds=1)

    report = evaluate_generator(real, ok, n_seeds=3, epochs=5, seed=66)
    assert isinstance(report, EvalReport)
    assert report.bce_std == pytest.approx(float(np.std(report.per_seed, ddof=1)))
    d = report.to_dict()
    assert d["n_seeds"] == 3
    assert d["options"]["epochs"] == 5
    assert d["options"]["seed"] == 66


def test_evaluate_generator_deterministic():
    real = _real_corpus(67, m=14)

    def gen(n, gen_seed):
        return np.random.default_rng(gen_seed).normal(size=(n, 6, 3))

    a = evaluate_generator(real, gen, n_seeds=2, epochs=8, seed=68)
    b = evaluate_generator(real, gen, n_seeds=2, epochs=8, seed=68)
    assert a.per_seed == b.per_seed
    assert a.bce_mean == b.bce_mean


# ------------------------------------------------- pinned numbers and checks


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


# Recorded with the two-pass epoch (a separate loss forward after every step)
# on x86-64, numpy 2.4, OpenBLAS 0.3.31. Width 12 with 24 signs changes in the
# last bits if the z and r gates share one matmul; width 32 with 10 signs
# changes if the backward pass multiplies by the hidden rows alone.
@pytest.mark.parametrize("hidden, signs, params_sha, trace_sha", [
    (12, 24, "2fb0567f8bd99c1d6e106f81e8acebe979f902d656b8a8e05582e3f388b9b2ba",
     "79a0c058128f13f25959975fd1969f9f4a9a51db908ffac6798a185cf2d21a1d"),
    (32, 10, "33061c04bc97431ab8fe6eca4df1c4cab372e2608752ec7499a7423556230ba4",
     "50b7d07236c74e042186f03f8010489d806236f6093b9a168179d583b2a22f5c"),
])
def test_train_gru_output_is_pinned(hidden, signs, params_sha, trace_sha):
    rng = np.random.default_rng(70)
    batch = rng.normal(size=(signs, 6, 14))
    labels = (np.arange(signs) % 2).astype(float)
    net = GruNet.random(14, hidden, np.random.default_rng(71))
    trained, trace = train_gru(net, batch, labels, epochs=12)
    assert _digest(trained.as_vector()) == params_sha
    assert _digest(trace) == trace_sha


def test_evaluate_generator_per_seed_bce_is_pinned():
    real = corpus_from_features(np.random.default_rng(72).normal(size=(12, 6, 4)))

    def shifted(n, gen_seed):
        return np.random.default_rng(gen_seed).normal(0.5, 1.0, size=(n, 6, 4))

    report = evaluate_generator(real, shifted, n_seeds=2, epochs=6, hidden_dim=32,
                                seed=73)
    assert report.per_seed == [0.6501258044418396, 0.4090483322341986]


@pytest.mark.parametrize("epochs", [0, 1, 7])
def test_train_trace_ends_are_the_nets_losses(epochs):
    rng = np.random.default_rng(74)
    batch = rng.normal(size=(9, 4, 3))
    labels = (np.arange(9) % 2).astype(float)
    net0 = GruNet.random(3, 5, rng)
    net, trace = train_gru(net0, batch, labels, epochs=epochs)
    assert len(trace) == epochs + 1
    assert trace[0] == bce_loss(net0, batch, labels)
    assert trace[-1] == bce_loss(net, batch, labels)


def test_train_rejects_a_non_finite_step():
    rng = np.random.default_rng(75)
    batch = rng.normal(size=(6, 4, 3))
    labels = (np.arange(6) % 2).astype(float)
    with pytest.raises(InvariantViolation):
        train_gru(GruNet.random(3, 2, rng), batch, labels, epochs=2, lr=float("nan"))


@pytest.mark.parametrize("labels, message", [
    (np.ones(1), r"labels must have shape \(5,\)"),
    (np.ones((5, 5)), r"labels must have shape \(5,\)"),
    (np.ones(3), r"labels must have shape \(5,\)"),
    ([0, 1, 2, 0, 1], "labels must be 0 or 1"),
    ([0, 1, -1, 0, 1], "labels must be 0 or 1"),
    ([0, 1, np.nan, 0, 1], "labels must be 0 or 1"),
    ([0, 1, 0.5, 0, 1], "labels must be 0 or 1"),
], ids=["length-1", "square", "length-3", "two", "minus-one", "nan", "half"])
@pytest.mark.parametrize("fn", [
    bce_loss, gru_grad, lambda net, batch, labels: train_gru(net, batch, labels, epochs=1),
], ids=["bce_loss", "gru_grad", "train_gru"])
def test_labels_must_have_one_entry_per_sign(fn, labels, message):
    rng = np.random.default_rng(76)
    batch = rng.normal(size=(5, 4, 3))
    with pytest.raises(InvariantViolation, match=message):
        fn(GruNet.random(3, 2, rng), batch, labels)


def test_train_gru_rejects_negative_epochs():
    rng = np.random.default_rng(76)
    batch = rng.normal(size=(4, 3, 2))
    with pytest.raises(InvariantViolation, match="epochs must not be negative, got -3"):
        train_gru(GruNet.random(2, 2, rng), batch, np.arange(4) % 2, epochs=-3)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_seeds": 0}, "n_seeds must be at least 1, got 0"),
    ({"n_seeds": -1}, "n_seeds must be at least 1, got -1"),
    ({"epochs": -2}, "epochs must not be negative, got -2"),
])
def test_evaluate_generator_rejects_bad_counts_before_drawing(kwargs, message):
    real = _real_corpus(77, m=12)
    calls = []

    def recording(n, gen_seed):
        calls.append(gen_seed)
        return np.zeros((n, 6, 3))

    with pytest.raises(InvariantViolation, match=message):
        evaluate_generator(real, recording, **kwargs)
    assert calls == []


def test_evaluate_generator_logs_each_seed(caplog):
    real = _real_corpus(78, m=12)

    def gen(n, gen_seed):
        return np.random.default_rng(gen_seed).normal(size=(n, 6, 3))

    with caplog.at_level(logging.INFO, logger="mh_phone"):
        report = evaluate_generator(real, gen, n_seeds=2, epochs=3, seed=79)
    lines = [r.getMessage() for r in caplog.records if r.name == "mh_phone"]
    assert len(lines) == 2
    for k, (line, test_bce) in enumerate(zip(lines, report.per_seed)):
        assert line.startswith(f"discriminator seed {k}: train bce ")
        assert line.endswith(f", test bce {test_bce:.6f}")

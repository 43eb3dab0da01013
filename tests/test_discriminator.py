"""GRU discriminator: forward pass, exact gradients, training, evaluation."""

import hashlib
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from mh_phone import discriminator
from mh_phone.discriminator import (LN2, EvalReport, GruNet, _n_params, _stratified_split,
                                    bce_loss, evaluate_generator, gru_forward, gru_grad,
                                    train_gru)
from mh_phone.errors import EmptyBatch, InvariantViolation, NotEnoughData

from helpers import corpus_from_features


def test_zero_net_is_exactly_chance():
    net = GruNet.zeros(4, 3)
    seq = np.random.default_rng(0).normal(size=(6, 4))
    assert gru_forward(net, seq) == 0.5
    batch = np.random.default_rng(1).normal(size=(5, 6, 4))
    assert [gru_forward(net, sign) for sign in batch] == [0.5] * 5
    assert bce_loss(net, batch, np.array([1, 0, 1, 0, 1])) == LN2


def test_probability_strictly_inside_unit_interval():
    net = GruNet.zeros(2, 1)
    net.w_out[:] = 1e6
    net.b_c[:] = 50.0  # drives the hidden state to saturation
    seq = np.ones((4, 2))
    p = gru_forward(net, seq)
    assert 0.0 < p < 1.0
    net.w_out[:] = -1e6
    q = gru_forward(net, seq)
    assert 0.0 < q < 1.0


def test_sigmoid_equals_the_where_form_bitwise():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300,
                  0.5, -0.5, 36.0, -36.0, 745.2, -745.2])
    x = np.concatenate([x, np.random.default_rng(20).normal(scale=10.0, size=64)])
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    assert discriminator._sigmoid(x).tobytes() == want.tobytes()


def test_forward_matches_hand_unrolled_recurrence():
    rng = np.random.default_rng(52)
    net = GruNet.random(3, 2, rng)
    net.b_z[:] = rng.normal(size=2)
    net.b_r[:] = rng.normal(size=2)
    net.b_c[:] = rng.normal(size=2)
    net.theta[-1] = 0.3
    assert net.b_out == 0.3
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
    assert back.theta is vec  # wrapped, not copied
    np.testing.assert_array_equal(back.as_vector(), vec)
    assert isinstance(back.b_out, float)
    with pytest.raises(InvariantViolation):
        net.from_vector(vec[:-1])


def test_as_vector_is_a_copy_and_blocks_are_views():
    net = GruNet.random(4, 3, np.random.default_rng(3))
    before = net.theta.copy()
    net.as_vector()[:] = 7.0
    np.testing.assert_array_equal(net.theta, before)
    assert net.w_z.shape == net.w_r.shape == net.w_c.shape == (7, 3)
    assert net.b_z.shape == net.b_r.shape == net.b_c.shape == net.w_out.shape == (3,)
    net.w_out[:] = 2.0
    net.theta[-1] = -1.5
    np.testing.assert_array_equal(net.theta[-4:], [2.0, 2.0, 2.0, -1.5])
    assert net.b_out == -1.5
    with pytest.raises(AttributeError):
        net.w_z = np.zeros((7, 3))  # rebinding would detach the block from theta


def test_random_draws_gate_weights_then_readout():
    net = GruNet.random(4, 3, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for block in (net.w_z, net.w_r, net.w_c):
        np.testing.assert_array_equal(block, rng.normal(0.0, 1 / math.sqrt(7), size=(7, 3)))
    np.testing.assert_array_equal(net.w_out, rng.normal(0.0, 1 / math.sqrt(3), size=3))
    for bias in (net.b_z, net.b_r, net.b_c):
        np.testing.assert_array_equal(bias, 0.0)
    assert net.b_out == 0.0


def test_net_validation():
    size = 3 * (4 + 2) * 2 + 4 * 2 + 1
    assert GruNet(np.zeros(size), 4, 2).theta.shape == (size,)
    with pytest.raises(InvariantViolation, match="wrong length"):
        GruNet(np.zeros(size + 1), 4, 2)
    with pytest.raises(InvariantViolation, match="wrong length"):
        GruNet(np.zeros((size, 1)), 4, 2)
    with pytest.raises(InvariantViolation, match="input width"):
        GruNet.zeros(0, 2)  # no room for the input block
    with pytest.raises(InvariantViolation, match="hidden width"):
        GruNet.zeros(4, 0)
    for bad in (np.nan, np.inf):
        theta = np.zeros(size)
        theta[5] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            GruNet(theta, 4, 2)


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
    net.b_z[:] = rng.normal(0, 0.1, size=3)
    net.b_r[:] = rng.normal(0, 0.1, size=3)
    net.b_c[:] = rng.normal(0, 0.1, size=3)
    net.theta[-1] = 0.1
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
    labels = np.array([1.0, 0.0, 1.0])
    assert bce_loss(net, corpus, labels) == bce_loss(net, corpus.features, labels)


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


@pytest.mark.parametrize("epochs", [0, 5])
def test_train_gru_runs_one_forward_per_epoch_plus_one(monkeypatch, epochs):
    calls = []
    forward = discriminator._forward

    def counting(net, ws):
        calls.append(ws)
        return forward(net, ws)

    monkeypatch.setattr(discriminator, "_forward", counting)
    rng = np.random.default_rng(80)
    batch = rng.normal(size=(6, 4, 3))
    train_gru(GruNet.random(3, 2, rng), batch, np.arange(6) % 2, epochs=epochs)
    assert len(calls) == epochs + 1


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


@pytest.mark.parametrize("n_fake", [0, 1, 3, 13])
def test_evaluate_generator_rejects_a_wrong_sign_count(n_fake):
    real = _real_corpus(81, m=12)
    with pytest.raises(InvariantViolation, match=(
            rf"generator returned shape \({n_fake}, 6, 3\), expected \(12, 6, 3\)")):
        evaluate_generator(real, lambda n, s: np.zeros((n_fake, 6, 3)), n_seeds=2, epochs=2)


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


# Recorded on the commit before training reused one workspace across epochs,
# x86-64, numpy 2.4, OpenBLAS 0.3.31. At 600 signs a (B, D+H) float64 array
# is 144 000 bytes, above glibc's 128 KiB mmap threshold, a regime the pins
# above (24 and 10 signs) never reach.
def test_train_gru_output_is_pinned_at_600_signs():
    rng = np.random.default_rng(90)
    batch = rng.normal(size=(600, 6, 14))
    labels = (np.arange(600) % 2).astype(float)
    net = GruNet.random(14, 16, np.random.default_rng(91))
    trained, trace = train_gru(net, batch, labels, epochs=3)
    assert _digest(trained.as_vector()) == (
        "d03f53ea82cb5d3ffd57a59139b639b989f4806a50e538f30bd327319181acaf")
    assert _digest(trace) == "47fa3c98389f44f0f5b3a8d8fa438961c2deb9bb0b122943341be1a92f586f8d"


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
    with pytest.raises(InvariantViolation, match="epochs must be at least 0, got -3"):
        train_gru(GruNet.random(2, 2, rng), batch, np.arange(4) % 2, epochs=-3)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_seeds": 0}, "n_seeds must be at least 1, got 0"),
    ({"n_seeds": -1}, "n_seeds must be at least 1, got -1"),
    ({"epochs": -2}, "epochs must be at least 0, got -2"),
    ({"lr": 0}, "lr must be positive and finite, got 0.0"),
    ({"lr": -0.5}, "lr must be positive and finite, got -0.5"),
    ({"lr": math.nan}, "lr must be positive and finite, got nan"),
    ({"hidden_dim": 0}, "hidden_dim must be at least 1, got 0"),
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


@pytest.mark.parametrize("bad, kind", [
    (2.7, "float"), (2.0, "float"), ("2", "str"), (True, "bool"), (math.nan, "float"),
])
@pytest.mark.parametrize("call, name", [
    (lambda real, gen, bad: evaluate_generator(real, gen, n_seeds=bad, epochs=1), "n_seeds"),
    (lambda real, gen, bad: evaluate_generator(real, gen, n_seeds=1, epochs=bad), "epochs"),
    (lambda real, gen, bad: evaluate_generator(real, gen, n_seeds=1, hidden_dim=bad),
     "hidden_dim"),
    (lambda real, gen, bad: train_gru(GruNet.random(3, 2, np.random.default_rng(0)),
                                      real.features, np.arange(12) % 2, epochs=bad), "epochs"),
    (lambda real, gen, bad: GruNet.zeros(3, bad), "hidden width"),
    (lambda real, gen, bad: GruNet.zeros(bad, 2), "input width"),
    (lambda real, gen, bad: GruNet(np.zeros(_n_params(3, 2)), bad, 2), "input width"),
], ids=["evaluate-n_seeds", "evaluate-epochs", "evaluate-hidden_dim", "train_gru-epochs",
        "zeros-hidden", "zeros-input", "init-input"])
def test_integer_arguments_must_be_integers(call, name, bad, kind):
    real = _real_corpus(93, m=12)
    calls = []

    def recording(n, gen_seed):
        calls.append(gen_seed)
        return np.zeros((n, 6, 3))

    with pytest.raises(InvariantViolation, match=f"^{name} must be an integer, got {kind}$"):
        call(real, recording, bad)
    assert calls == []


def test_numpy_integer_arguments_are_taken_as_ints():
    real = _real_corpus(94, m=12)
    report = evaluate_generator(real, lambda n, s: np.zeros((n, 6, 3)), n_seeds=np.int64(1),
                                epochs=np.int32(0), hidden_dim=np.int16(2), seed=95)
    assert report.options["n_seeds"] == 1 and type(report.options["n_seeds"]) is int
    assert type(report.n_seeds) is int
    assert type(report.options["epochs"]) is int
    assert type(report.options["hidden_dim"]) is int
    net = GruNet.zeros(np.int64(3), np.int64(2))
    assert type(net.input_dim) is int and type(net.hidden_dim) is int


@pytest.mark.parametrize("bad, kind", [(2.7, "float"), ("3", "str"), (True, "bool")])
def test_evaluate_generator_seed_must_be_an_integer(bad, kind):
    real = _real_corpus(98, m=12)
    calls = []

    def recording(n, gen_seed):
        calls.append(gen_seed)
        return np.zeros((n, 6, 3))

    with pytest.raises(InvariantViolation, match=f"^seed must be an integer, got {kind}$"):
        evaluate_generator(real, recording, n_seeds=1, epochs=1, seed=bad)
    assert calls == []


def test_evaluate_generator_reports_the_seed_it_drew_from():
    real = _real_corpus(99, m=12)

    def gen(n, gen_seed):
        return np.random.default_rng(gen_seed).normal(size=(n, 6, 3))

    def report_bytes(seed):
        report = evaluate_generator(real, gen, n_seeds=1, epochs=2, seed=seed)
        return json.dumps(report.to_dict()).encode()

    assert report_bytes(np.int64(3)) == report_bytes(3)
    # a seed has no minimum
    assert json.loads(report_bytes(-1))["options"]["seed"] == -1


@pytest.mark.parametrize("kwargs, message", [
    ({"split": "half"}, "split must be strictly between 0 and 1, got 'half'"),
    ({"split": None}, "split must be strictly between 0 and 1, got None"),
    ({"split": True}, "split must be strictly between 0 and 1, got True"),
    ({"split": 1.5}, "split must be strictly between 0 and 1, got 1.5"),
    ({"split": math.nan}, "split must be strictly between 0 and 1, got nan"),
    ({"lr": "abc"}, "lr must be positive and finite, got 'abc'"),
    ({"lr": None}, "lr must be positive and finite, got None"),
    ({"lr": True}, "lr must be positive and finite, got True"),
], ids=["split-text", "split-none", "split-bool", "split-1.5", "split-nan", "lr-text",
        "lr-none", "lr-bool"])
def test_evaluate_generator_rejects_numbers_before_drawing(kwargs, message):
    real = _real_corpus(100, m=12)
    calls = []

    def recording(n, gen_seed):
        calls.append(gen_seed)
        return np.zeros((n, 6, 3))

    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        evaluate_generator(real, recording, n_seeds=1, epochs=1, **kwargs)
    assert calls == []


def test_a_split_given_as_text_is_taken_as_its_number():
    real = _real_corpus(101, m=12)
    reports = [evaluate_generator(real, lambda n, s: np.zeros((n, 6, 3)), n_seeds=1, epochs=2,
                                  split=split).to_dict() for split in ("0.5", 0.5)]
    assert reports[0] == reports[1]
    assert type(reports[0]["options"]["split"]) is float


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


# ------------------------------------------------- the training workspace


def _every_call(signs, seed):
    """Each public call on a fresh (signs, 5, 3) batch, and what it gave."""
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(signs, 5, 3))
    labels = (np.arange(signs) % 2).astype(float)
    net = GruNet.random(3, 4, rng)
    trained, trace = train_gru(net, batch, labels, epochs=4)
    return {"theta": trained.as_vector(), "trace": np.array(trace),
            "bce": bce_loss(trained, batch, labels),
            "grad": gru_grad(trained, batch, labels).as_vector(),
            "prob": gru_forward(trained, batch[0])}


def _assert_same(got, want):
    for key in want:
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key


def test_train_gru_leaves_the_callers_parameters_unchanged():
    rng = np.random.default_rng(82)
    batch = rng.normal(size=(7, 4, 3))
    net = GruNet.random(3, 5, rng)
    theta, before = net.theta, net.theta.copy()
    trained, _ = train_gru(net, batch, np.arange(7) % 2, epochs=3)
    assert net.theta is theta
    assert theta.tobytes() == before.tobytes()
    assert not np.shares_memory(trained.theta, theta)


def test_calls_of_different_batch_sizes_do_not_share_a_workspace():
    alone = {signs: _every_call(signs, 83) for signs in (6, 11)}
    # trainings and single calls of two sizes, interleaved
    first = _every_call(6, 83)
    second = _every_call(11, 83)
    third = _every_call(6, 83)
    _assert_same(first, alone[6])
    _assert_same(second, alone[11])
    _assert_same(third, alone[6])


def test_returned_arrays_are_not_overwritten_by_later_calls():
    kept = _every_call(9, 84)
    copies = {key: np.array(value, copy=True) for key, value in kept.items()}
    _every_call(9, 85)
    _every_call(9, 84)
    _assert_same(kept, copies)


def test_one_workspace_serves_a_whole_training(monkeypatch):
    spaces = []
    forward = discriminator._forward

    def recording(net, ws):
        spaces.append(ws)
        return forward(net, ws)

    monkeypatch.setattr(discriminator, "_forward", recording)
    rng = np.random.default_rng(86)
    batch = rng.normal(size=(5, 4, 3))
    train_gru(GruNet.random(3, 2, rng), batch, np.arange(5) % 2, epochs=3)
    assert len(spaces) == 4
    assert all(ws is spaces[0] for ws in spaces)
    ws = spaces[0]
    assert ws.hs.shape == (5, 5, 2)
    assert ws.zs.shape == ws.rs.shape == ws.hcs.shape == (4, 5, 2)
    assert ws.joint.shape == ws.wide.shape == (5, 5)
    assert ws.joint.flags.c_contiguous
    # the frames are the caller's batch, time-major, read in place; hidden row 0 is zero
    assert ws.frames.shape == (4, 5, 3)
    assert np.shares_memory(ws.frames, batch)
    assert not ws.hs[0].any()
    arrays = [a for a in (*vars(ws).values(), *ws.scratch) if isinstance(a, np.ndarray)]
    assert [a for a in arrays if np.shares_memory(a, batch)] == [ws.frames]


def test_a_training_workspace_holds_no_copy_of_the_frames():
    # The hidden states, the gates and the candidate states, plus a few
    # (B, D+H) buffers: about 12.4 MB at this size. Keeping every step's
    # [x_t, h_t] and [x_t, r_t * h_t], as (P+1, B, D+H) and (P, B, D+H)
    # arrays in place of the hidden states, would take 21.0 MB.
    b, p, d, h = 960, 25, 14, 16
    rng = np.random.default_rng(92)
    batch = rng.normal(size=(b, p, d))
    net = GruNet.random(d, h, rng)
    tracemalloc.start()
    try:
        ws = discriminator._Workspace(net, batch)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 8 * (((p + 1) * h + 3 * p * h) * b + 8 * b * (d + h))
    assert ws.hs.nbytes + ws.zs.nbytes + ws.rs.nbytes + ws.hcs.nbytes == (
        8 * ((p + 1) * h + 3 * p * h) * b)


def test_a_warm_step_allocates_nothing_per_frame():
    # A step's arrays live in the workspace. What a call still allocates is
    # per call (logits, the gradient) or numpy's ufunc buffers, at most 8192
    # elements each, so at this B the peak stays below one (B, H) temporary.
    b, d, h = 4096, 14, 16
    peaks = {}
    for p in (4, 40):
        rng = np.random.default_rng(87)
        batch = rng.normal(size=(b, p, d))
        labels = (np.arange(b) % 2).astype(float)
        net = GruNet.random(d, h, rng)
        ws = discriminator._Workspace(net, batch)
        discriminator._loss_and_grad(net, labels, ws)
        tracemalloc.start()
        try:
            discriminator._loss_and_grad(net, labels, ws)
            peaks[p] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] <= peaks[4]
    assert peaks[40] < b * h * 8


@pytest.mark.parametrize("fn", [
    lambda net, batch, labels: bce_loss(net, batch, labels),
    lambda net, batch, labels: gru_grad(net, batch, labels),
    lambda net, batch, labels: train_gru(net, batch, labels, epochs=1),
    lambda net, batch, labels: gru_forward(net, batch[0]),
], ids=["bce_loss", "gru_grad", "train_gru", "gru_forward"])
@pytest.mark.parametrize("width", [2, 4])
def test_a_batch_of_the_wrong_width_is_rejected(monkeypatch, fn, width):
    def no_workspace(*args):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(discriminator, "_Workspace", no_workspace)
    rng = np.random.default_rng(89)
    batch = rng.normal(size=(4, 5, width))
    with pytest.raises(InvariantViolation,
                       match=f"^batch has {width} features per frame, the net takes 3$"):
        fn(GruNet.random(3, 2, rng), batch, np.arange(4) % 2)


@pytest.mark.parametrize("fn, what", [
    (lambda net, batch, labels: bce_loss(net, batch, labels), "batch"),
    (lambda net, batch, labels: gru_grad(net, batch, labels), "batch"),
    (lambda net, batch, labels: train_gru(net, batch, labels, epochs=1), "batch"),
    (lambda net, batch, labels: gru_forward(net, batch[2]), "sequence"),
    (lambda net, batch, labels: evaluate_generator(
        _real_corpus(96, m=12, p=5), lambda n, s: np.resize(batch, (n, 5, 3)), n_seeds=1),
     "batch"),
], ids=["bce_loss", "gru_grad", "train_gru", "gru_forward", "evaluate_generator"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_batch_with_a_non_finite_frame_is_rejected(monkeypatch, fn, what, bad):
    def no_workspace(*args):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(discriminator, "_Workspace", no_workspace)
    rng = np.random.default_rng(97)
    batch = rng.normal(size=(4, 5, 3))
    batch[2, 3, 1] = bad
    with pytest.raises(InvariantViolation, match=f"^{what} has non-finite frames$"):
        fn(GruNet.random(3, 2, rng), batch, np.arange(4) % 2)


def test_finite_frames_whose_sum_overflows_are_accepted(monkeypatch):
    def no_workspace(*args):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(discriminator, "_Workspace", no_workspace)
    batch = np.full((4, 5, 3), 1e308)
    with np.errstate(over="ignore"):
        assert np.isinf(batch.sum())
    with pytest.raises(AssertionError, match="a workspace was built"):
        bce_loss(GruNet.random(3, 2, np.random.default_rng(98)), batch, np.arange(4) % 2)


def test_a_corpus_is_not_scanned_again(monkeypatch):
    def no_scan(*args):
        raise AssertionError("a corpus was scanned")

    monkeypatch.setattr(discriminator, "_check_finite", no_scan)
    rng = np.random.default_rng(99)
    corpus = corpus_from_features(rng.normal(size=(4, 5, 3)))
    net = GruNet.random(3, 2, rng)
    bce_loss(net, corpus, np.arange(4) % 2)
    gru_grad(net, corpus, np.arange(4) % 2)


@pytest.mark.parametrize("fn, shape, message", [
    (lambda net, data: bce_loss(net, data, np.arange(4) % 2), (4, 15),
     "a batch must be (signs, frames, features)"),
    (lambda net, data: gru_grad(net, data, np.arange(4) % 2), (4, 5, 3, 1),
     "a batch must be (signs, frames, features)"),
    (gru_forward, (5,), "sequence must be a (frames, features) matrix"),
    (gru_forward, (1, 5, 3), "sequence must be a (frames, features) matrix"),
], ids=["bce_loss-2d", "gru_grad-4d", "gru_forward-1d", "gru_forward-3d"])
def test_data_of_the_wrong_rank_is_rejected(fn, shape, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        fn(GruNet.random(3, 2, np.random.default_rng(91)), np.ones(shape))


@pytest.mark.parametrize("lr", [0, 0.0, -0.5, math.nan, math.inf, -math.inf])
def test_train_gru_rejects_a_learning_rate_that_is_not_positive_and_finite(lr):
    rng = np.random.default_rng(90)
    batch = rng.normal(size=(4, 3, 2))
    with pytest.raises(InvariantViolation,
                       match=re.escape(f"lr must be positive and finite, got {float(lr)}")):
        train_gru(GruNet.random(2, 2, rng), batch, np.arange(4) % 2, epochs=5, lr=lr)

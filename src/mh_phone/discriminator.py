"""A small GRU discriminator used to score generators.

The evaluation protocol: label real signs 1 and generated signs 0, train the
discriminator on a stratified split, and report its binary cross-entropy on
the held-out part. A generator that matches the real distribution leaves the
discriminator at chance, BCE = ln 2 (about 0.693); an easily spotted
generator drives the BCE toward 0. Higher is therefore better.

The network is a single standard GRU (update and reset gates, candidate
state, all on the concatenated [frame, hidden] input) followed by an affine
readout of the final hidden state through a logistic output. Training is
full-batch with Adam-style adaptive steps; gradients are exact
backpropagation through time.

All parameters live in one flat float64 vector, `GruNet.theta`, with the
input width D and hidden width H fixing its layout. In storage order the
blocks are the update, reset and candidate gate weights w_z, w_r, w_c, each
(D+H, H) in row-major order; their (H,) biases b_z, b_r, b_c; the (H,)
readout weights w_out; and the scalar readout bias b_out, the last entry.
The named blocks are views of theta, the gradient is a vector in the same
layout, and Adam updates theta in one piece.

Each training epoch runs one forward pass, which gives both the trace entry
(the loss of the net before that epoch's step) and the caches the gradient
back-propagates through; one more forward scores the trained net, so a
training runs epochs + 1 forwards. Every matrix product has the same
operands and shape as a separate forward and backward would use, so the
trained parameters, the trace and the reported losses are bit-for-bit those
of that two-pass schedule.

A forward writes each step's gates and hidden state into a time-major
workspace (see `_workspace`) that the backward pass reads. A training
allocates one workspace and reuses it in every pass, so it does not free and
fault in the per-step caches again every epoch; `bce_loss`, `gru_grad` and
`gru_forward` each allocate one for their own batch.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBatch, InvariantViolation, NotEnoughData
from .seeding import component_seed, rng_for

LN2 = math.log(2.0)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

log = logging.getLogger("mh_phone")


def _n_params(d, h):
    """Length of theta: three (d+h, h) gate matrices, four (h,) vectors, b_out."""
    return 3 * (d + h) * h + 4 * h + 1


def _blocks(theta, d, h):
    """Views of theta's blocks, in storage order, for input width d and hidden width h."""
    shapes = {"w_z": (d + h, h), "w_r": (d + h, h), "w_c": (d + h, h), "b_z": (h,),
              "b_r": (h,), "b_c": (h,), "w_out": (h,)}
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = theta[offset:offset + size].reshape(shape)
        offset += size
    return views


def _block(name):
    return property(lambda self: self._views[name],
                    doc=f"The {name} block of theta, a view.")


class GruNet:
    """Parameters of the discriminator: the flat vector `theta`, laid out as
    the module docstring says. The named blocks are read-only attributes
    holding views of theta; b_out reads as a float."""

    w_z, w_r, w_c = _block("w_z"), _block("w_r"), _block("w_c")
    b_z, b_r, b_c = _block("b_z"), _block("b_r"), _block("b_c")
    w_out = _block("w_out")

    def __init__(self, theta, input_dim, hidden_dim):
        d, h = int(input_dim), int(hidden_dim)
        if h < 1:
            raise InvariantViolation("hidden width must be at least 1")
        if d < 1:
            raise InvariantViolation("input width must be at least 1")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (_n_params(d, h),):
            raise InvariantViolation("parameter vector has the wrong length")
        if not np.all(np.isfinite(theta)):
            raise InvariantViolation("parameter vector has non-finite entries")
        self.theta, self.input_dim, self.hidden_dim = theta, d, h
        self._views = _blocks(theta, d, h)

    @property
    def b_out(self) -> float:
        return float(self.theta[-1])

    @classmethod
    def zeros(cls, input_dim, hidden_dim):
        d, h = int(input_dim), int(hidden_dim)
        return cls(np.zeros(_n_params(d, h)), d, h)

    @classmethod
    def random(cls, input_dim, hidden_dim, rng):
        """Gaussian fan-in scaled weights, zero biases."""
        net = cls.zeros(input_dim, hidden_dim)
        d, h = net.input_dim, net.hidden_dim
        for block in (net.w_z, net.w_r, net.w_c):
            block[...] = rng.normal(0.0, 1.0 / math.sqrt(d + h), size=block.shape)
        net.w_out[...] = rng.normal(0.0, 1.0 / math.sqrt(h), size=h)
        return net

    def as_vector(self) -> np.ndarray:
        """A copy of theta."""
        return self.theta.copy()

    def from_vector(self, vec) -> "GruNet":
        """A net with this net's shapes wrapping the given flat parameters."""
        return GruNet(vec, self.input_dim, self.hidden_dim)


def _sigmoid(x, out=None):
    # exp(-|x|) never overflows; for x < 0 the logistic is e / (1 + e).
    # e <= 1, so the max gives the numerator 1 where x >= 0 and e elsewhere.
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def _workspace(net: GruNet, batch):
    """The time-major arrays `_forward` fills for a (B, P, D) batch: hidden
    states (P+1, B, H), row 0 zero, and the gates z, r and candidate states
    hc, each (P, B, H). One training reuses one workspace in every pass."""
    b, p, _ = batch.shape
    h = net.hidden_dim
    return (np.zeros((p + 1, b, h)),) + tuple(np.empty((p, b, h)) for _ in range(3))


def _forward(net: GruNet, batch, ws):
    """Run the recurrence over a (B, P, D) batch, writing every step's gates
    and next hidden state into the workspace `ws`; returns the logits."""
    hs, zs, rs, hcs = ws
    for t in range(batch.shape[1]):
        x, h = batch[:, t], hs[t]
        joint = np.concatenate([x, h], axis=1)
        z = _sigmoid(joint @ net.w_z + net.b_z, out=zs[t])
        r = _sigmoid(joint @ net.w_r + net.b_r, out=rs[t])
        joint_c = np.concatenate([x, r * h], axis=1)
        hc = np.tanh(joint_c @ net.w_c + net.b_c, out=hcs[t])
        np.add((1.0 - z) * hc, z * h, out=hs[t + 1])
    return hs[-1] @ net.w_out + net.b_out


def _bce_from_logits(logits, labels):
    """Numerically stable mean binary cross-entropy."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean(np.maximum(logits, 0.0) - logits * labels
                         + np.log1p(np.exp(-np.abs(logits)))))


def _as_batch(data):
    if hasattr(data, "features"):
        data = data.features
    batch = np.asarray(data, dtype=float)
    if batch.ndim != 3:
        raise InvariantViolation("a batch must be (signs, frames, features)")
    return batch


def _as_labeled_batch(batch, labels, action):
    batch = _as_batch(batch)
    if batch.shape[0] == 0:
        raise EmptyBatch(f"cannot {action} an empty batch")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (batch.shape[0],):
        raise InvariantViolation(
            f"labels must have shape {(batch.shape[0],)}, got {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InvariantViolation("labels must be 0 or 1")
    return batch, labels


def gru_forward(net: GruNet, sequence) -> float:
    """Probability that one (P, D) sequence is real, strictly inside (0, 1)."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 2:
        raise InvariantViolation("sequence must be a (frames, features) matrix")
    seq = seq[None]
    prob = float(_sigmoid(_forward(net, seq, _workspace(net, seq)))[0])
    tiny = 1e-15
    return min(max(prob, tiny), 1.0 - tiny)


def bce_loss(net: GruNet, batch, labels) -> float:
    """Mean binary cross-entropy of the net on a labeled batch."""
    batch, labels = _as_labeled_batch(batch, labels, "score")
    return _bce_from_logits(_forward(net, batch, _workspace(net, batch)), labels)


def _backward(net: GruNet, batch, ws, logits, labels) -> np.ndarray:
    """Backpropagation through time over the workspace one `_forward` filled:
    the gradient of the mean BCE as a flat vector in theta's layout."""
    hs, zs, rs, hcs = ws
    b = logits.shape[0]
    d = net.input_dim
    grad = np.zeros_like(net.theta)
    g = _blocks(grad, d, net.hidden_dim)
    g_w_z, g_w_r, g_w_c = g["w_z"], g["w_r"], g["w_c"]
    g_b_z, g_b_r, g_b_c = g["b_z"], g["b_r"], g["b_c"]
    dlogits = (_sigmoid(logits) - labels) / b
    g["w_out"][...] = hs[-1].T @ dlogits
    grad[-1] = dlogits.sum()
    dh = np.outer(dlogits, net.w_out)

    for t in reversed(range(batch.shape[1])):
        x, h_prev, z, r, hc = batch[:, t], hs[t], zs[t], rs[t], hcs[t]
        dz = dh * (h_prev - hc)
        dhc = dh * (1.0 - z)
        da_c = dhc * (1.0 - hc * hc)
        joint_c = np.concatenate([x, r * h_prev], axis=1)
        g_w_c += joint_c.T @ da_c
        g_b_c += da_c.sum(axis=0)
        dq = (da_c @ net.w_c.T)[:, d:]
        dr = dq * h_prev
        da_r = dr * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)
        joint = np.concatenate([x, h_prev], axis=1)
        g_w_r += joint.T @ da_r
        g_b_r += da_r.sum(axis=0)
        g_w_z += joint.T @ da_z
        g_b_z += da_z.sum(axis=0)
        dh = (dh * z + dq * r
              + (da_r @ net.w_r.T)[:, d:]
              + (da_z @ net.w_z.T)[:, d:])

    return grad


def _loss_and_grad(net: GruNet, batch, labels, ws):
    """(mean BCE, flat gradient) from one forward pass over a checked batch,
    through the workspace `ws`."""
    logits = _forward(net, batch, ws)
    return _bce_from_logits(logits, labels), _backward(net, batch, ws, logits, labels)


def gru_grad(net: GruNet, batch, labels) -> GruNet:
    """Exact gradients of the mean BCE with respect to every parameter block.

    Returned as a GruNet whose blocks hold the gradients.
    """
    batch, labels = _as_labeled_batch(batch, labels, "take gradients on")
    _, grad = _loss_and_grad(net, batch, labels, _workspace(net, batch))
    return net.from_vector(grad)


def train_gru(net: GruNet, batch, labels, *, epochs=50, lr=1e-2):
    """Full-batch Adam-style training. Returns (net, per-epoch train BCE).

    The trace has epochs + 1 entries; entry 0 is the untrained loss and
    entry t the loss after t steps. Entry t < epochs comes from the forward
    pass behind step t+1's gradient, so training runs epochs + 1 forwards.
    """
    batch, labels = _as_labeled_batch(batch, labels, "train on")
    epochs = int(epochs)
    if epochs < 0:
        raise InvariantViolation(f"epochs must not be negative, got {epochs}")
    theta = net.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    ws = _workspace(net, batch)
    trace = []
    for t in range(1, epochs + 1):
        loss, grad = _loss_and_grad(net, batch, labels, ws)
        trace.append(loss)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        net = net.from_vector(theta)
    trace.append(_bce_from_logits(_forward(net, batch, ws), labels))
    return net, trace


@dataclass
class EvalReport:
    """Discriminator scores for one generator: mean, spread, per-seed values."""

    bce_mean: float
    bce_std: float
    n_seeds: int
    per_seed: list
    options: dict = field(default_factory=dict)

    def to_dict(self):
        return {"bce_mean": self.bce_mean, "bce_std": self.bce_std,
                "n_seeds": self.n_seeds, "per_seed": list(self.per_seed),
                "options": dict(self.options)}


def _stratified_split(rng, labels, train_frac):
    train_parts, test_parts = [], []
    for value in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == value))
        cut = int(round(train_frac * len(idx)))
        cut = min(max(cut, 1), len(idx) - 1)
        train_parts.append(idx[:cut])
        test_parts.append(idx[cut:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def evaluate_generator(real, generator, *, n_seeds=5, split=0.8, epochs=50,
                       lr=1e-2, hidden_dim=16, seed=0) -> EvalReport:
    """Score a generator against a real corpus with freshly trained
    discriminators.

    For each of n_seeds rounds: ask `generator(n, seed_k)` for as many signs
    as the real corpus has (a batch of another shape is an error), label real 1 and generated 0, make a stratified
    train/test split, train a GRU from a seeded random init, and record the
    test BCE. Returns mean and standard deviation over rounds; every draw is
    derived from `seed`, so results are bit-reproducible.
    """
    if int(n_seeds) < 1:
        raise InvariantViolation(f"n_seeds must be at least 1, got {n_seeds}")
    if int(epochs) < 0:
        raise InvariantViolation(f"epochs must not be negative, got {epochs}")
    if int(hidden_dim) < 1:
        raise InvariantViolation(f"hidden_dim must be at least 1, got {hidden_dim}")
    real_batch = _as_batch(real)
    n_real, _, d = real_batch.shape
    if n_real < 10:
        raise NotEnoughData("generator evaluation needs at least 10 real signs")
    if not (0.0 < split < 1.0):
        raise InvariantViolation("split must be strictly between 0 and 1")
    per_seed = []
    for k in range(int(n_seeds)):
        fake_batch = _as_batch(generator(n_real, component_seed(seed, f"generator/{k}")))
        if fake_batch.shape != real_batch.shape:
            raise InvariantViolation(
                f"generator returned shape {fake_batch.shape}, expected {real_batch.shape}")
        data = np.concatenate([real_batch, fake_batch], axis=0)
        labels = np.concatenate([np.ones(n_real), np.zeros(n_real)])
        rng = rng_for(seed, f"discriminator/{k}")
        train_idx, test_idx = _stratified_split(rng, labels, split)
        net = GruNet.random(d, hidden_dim, rng)
        net, trace = train_gru(net, data[train_idx], labels[train_idx],
                               epochs=epochs, lr=lr)
        per_seed.append(bce_loss(net, data[test_idx], labels[test_idx]))
        log.info("discriminator seed %d: train bce %.6f -> %.6f, test bce %.6f",
                 k, trace[0], trace[-1], per_seed[-1])
    mean = float(np.mean(per_seed))
    std = float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0
    options = {"n_seeds": int(n_seeds), "split": float(split), "epochs": int(epochs),
               "lr": float(lr), "hidden_dim": int(hidden_dim), "seed": int(seed)}
    return EvalReport(bce_mean=mean, bce_std=std, n_seeds=int(n_seeds),
                      per_seed=per_seed, options=options)

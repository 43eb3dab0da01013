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

Each training epoch runs one forward pass, which gives both the trace entry
(the loss of the net before that epoch's step) and the caches the gradient
back-propagates through. Every matrix product has the same operands and
shape as a separate forward and backward would use, so the trained
parameters, the trace and the reported losses are bit-for-bit those of that
two-pass schedule.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBatch, InvariantViolation, NotEnoughData
from .seeding import component_seed, rng_for

_PARAM_FIELDS = ("w_z", "w_r", "w_c", "b_z", "b_r", "b_c", "w_out", "b_out")

LN2 = math.log(2.0)

log = logging.getLogger("mh_phone")


@dataclass
class GruNet:
    """Parameters of the discriminator.

    The three gate blocks are (D+H, H) weight matrices plus (H,) biases; the
    readout is an (H,) vector and a scalar bias.
    """

    w_z: np.ndarray
    w_r: np.ndarray
    w_c: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_c: np.ndarray
    w_out: np.ndarray
    b_out: float

    def __post_init__(self):
        for name in _PARAM_FIELDS[:-1]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.b_out = float(self.b_out)
        h = self.w_out.shape[0]
        if h < 1:
            raise InvariantViolation("hidden width must be at least 1")
        d_plus_h = self.w_z.shape[0]
        if d_plus_h <= h:
            raise InvariantViolation("gate blocks must take the concatenated [x, h] input")
        for name in ("w_z", "w_r", "w_c"):
            if getattr(self, name).shape != (d_plus_h, h):
                raise InvariantViolation(f"{name} must have shape {(d_plus_h, h)}")
        for name in ("b_z", "b_r", "b_c"):
            if getattr(self, name).shape != (h,):
                raise InvariantViolation(f"{name} must have shape {(h,)}")
        for name in _PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvariantViolation(f"{name} has non-finite entries")

    @property
    def hidden_dim(self) -> int:
        return self.w_out.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[0] - self.hidden_dim

    @classmethod
    def zeros(cls, input_dim, hidden_dim):
        d, h = int(input_dim), int(hidden_dim)
        return cls(w_z=np.zeros((d + h, h)), w_r=np.zeros((d + h, h)),
                   w_c=np.zeros((d + h, h)), b_z=np.zeros(h), b_r=np.zeros(h),
                   b_c=np.zeros(h), w_out=np.zeros(h), b_out=0.0)

    @classmethod
    def random(cls, input_dim, hidden_dim, rng):
        """Gaussian fan-in scaled weights, zero biases."""
        d, h = int(input_dim), int(hidden_dim)
        gate_scale = 1.0 / math.sqrt(d + h)
        out_scale = 1.0 / math.sqrt(h)
        return cls(
            w_z=rng.normal(0.0, gate_scale, size=(d + h, h)),
            w_r=rng.normal(0.0, gate_scale, size=(d + h, h)),
            w_c=rng.normal(0.0, gate_scale, size=(d + h, h)),
            b_z=np.zeros(h), b_r=np.zeros(h), b_c=np.zeros(h),
            w_out=rng.normal(0.0, out_scale, size=h), b_out=0.0,
        )

    def as_vector(self) -> np.ndarray:
        parts = [np.asarray(getattr(self, name), dtype=float).ravel()
                 for name in _PARAM_FIELDS]
        return np.concatenate(parts)

    def from_vector(self, vec) -> "GruNet":
        """A new net with this net's shapes and the given flat parameters."""
        vec = np.asarray(vec, dtype=float)
        total = sum(np.asarray(getattr(self, name)).size for name in _PARAM_FIELDS)
        if vec.shape != (total,):
            raise InvariantViolation("parameter vector has the wrong length")
        values = {}
        offset = 0
        for name in _PARAM_FIELDS:
            ref = np.asarray(getattr(self, name))
            size = ref.size
            values[name] = vec[offset:offset + size].reshape(ref.shape).copy()
            offset += size
        values["b_out"] = float(values["b_out"])
        return GruNet(**values)


def _sigmoid(x):
    # exp(-|x|) never overflows; for x < 0 the logistic is e / (1 + e)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _forward(net: GruNet, batch):
    """Run the recurrence over a (B, P, D) batch; returns logits and caches."""
    b, p, d = batch.shape
    h = np.zeros((b, net.hidden_dim))
    caches = []
    for t in range(p):
        x = batch[:, t]
        joint = np.concatenate([x, h], axis=1)
        z = _sigmoid(joint @ net.w_z + net.b_z)
        r = _sigmoid(joint @ net.w_r + net.b_r)
        joint_c = np.concatenate([x, r * h], axis=1)
        hc = np.tanh(joint_c @ net.w_c + net.b_c)
        h_new = (1.0 - z) * hc + z * h
        caches.append((x, h, z, r, hc))
        h = h_new
    logits = h @ net.w_out + net.b_out
    return logits, h, caches


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


def _as_labels(batch, labels):
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (batch.shape[0],):
        raise InvariantViolation(
            f"labels must have shape {(batch.shape[0],)}, got {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InvariantViolation("labels must be 0 or 1")
    return labels


def gru_forward(net: GruNet, sequence) -> float:
    """Probability that one (P, D) sequence is real, strictly inside (0, 1)."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 2:
        raise InvariantViolation("sequence must be a (frames, features) matrix")
    logits, _, _ = _forward(net, seq[None])
    prob = float(_sigmoid(logits)[0])
    tiny = 1e-15
    return min(max(prob, tiny), 1.0 - tiny)


def gru_forward_batch(net: GruNet, batch) -> np.ndarray:
    """Probabilities for a (B, P, D) batch."""
    logits, _, _ = _forward(net, _as_batch(batch))
    return _sigmoid(logits)


def bce_loss(net: GruNet, batch, labels) -> float:
    """Mean binary cross-entropy of the net on a labeled batch."""
    batch = _as_batch(batch)
    if batch.shape[0] == 0:
        raise EmptyBatch("cannot score an empty batch")
    labels = _as_labels(batch, labels)
    logits, _, _ = _forward(net, batch)
    return _bce_from_logits(logits, labels)


def _backward(net: GruNet, logits, h_last, caches, labels) -> np.ndarray:
    """Backpropagation through time over one `_forward`'s caches: the
    gradient of the mean BCE as a flat vector in `as_vector` order."""
    b = logits.shape[0]
    d = net.input_dim
    dlogits = (_sigmoid(logits) - labels) / b
    g_w_out = h_last.T @ dlogits
    g_b_out = float(dlogits.sum())
    dh = np.outer(dlogits, net.w_out)

    g_w_z = np.zeros_like(net.w_z)
    g_w_r = np.zeros_like(net.w_r)
    g_w_c = np.zeros_like(net.w_c)
    g_b_z = np.zeros_like(net.b_z)
    g_b_r = np.zeros_like(net.b_r)
    g_b_c = np.zeros_like(net.b_c)

    for x, h_prev, z, r, hc in reversed(caches):
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

    return np.concatenate([g_w_z.ravel(), g_w_r.ravel(), g_w_c.ravel(), g_b_z,
                           g_b_r, g_b_c, g_w_out, [g_b_out]])


def _loss_and_grad(net: GruNet, batch, labels):
    """(mean BCE, flat gradient) from one forward pass over a checked batch."""
    logits, h_last, caches = _forward(net, batch)
    return (_bce_from_logits(logits, labels),
            _backward(net, logits, h_last, caches, labels))


def gru_grad(net: GruNet, batch, labels) -> GruNet:
    """Exact gradients of the mean BCE with respect to every parameter block.

    Returned as a GruNet whose fields hold the gradients.
    """
    batch = _as_batch(batch)
    if batch.shape[0] == 0:
        raise EmptyBatch("cannot take gradients on an empty batch")
    _, grad = _loss_and_grad(net, batch, _as_labels(batch, labels))
    return net.from_vector(grad)


def train_gru(net: GruNet, batch, labels, *, epochs=50, lr=1e-2,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Full-batch Adam-style training. Returns (net, per-epoch train BCE).

    The trace has epochs + 1 entries; entry 0 is the untrained loss and
    entry t the loss after t steps.
    """
    batch = _as_batch(batch)
    labels = _as_labels(batch, labels)
    epochs = int(epochs)
    if epochs < 0:
        raise InvariantViolation(f"epochs must not be negative, got {epochs}")
    theta = net.as_vector()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace = [bce_loss(net, batch, labels)]
    for t in range(1, epochs + 1):
        # the forward behind step t's gradient scores the net after step t-1
        loss, grad = _loss_and_grad(net, batch, labels)
        if t > 1:
            trace.append(loss)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        net = net.from_vector(theta)
    if epochs > 0:
        trace.append(bce_loss(net, batch, labels))
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
    as the real corpus has, label real 1 and generated 0, make a stratified
    train/test split, train a GRU from a seeded random init, and record the
    test BCE. Returns mean and standard deviation over rounds; every draw is
    derived from `seed`, so results are bit-reproducible.
    """
    if int(n_seeds) < 1:
        raise InvariantViolation(f"n_seeds must be at least 1, got {n_seeds}")
    if int(epochs) < 0:
        raise InvariantViolation(f"epochs must not be negative, got {epochs}")
    real_batch = _as_batch(real)
    n_real, p, d = real_batch.shape
    if n_real < 10:
        raise NotEnoughData("generator evaluation needs at least 10 real signs")
    if not (0.0 < split < 1.0):
        raise InvariantViolation("split must be strictly between 0 and 1")
    per_seed = []
    for k in range(int(n_seeds)):
        fake_batch = _as_batch(generator(n_real, component_seed(seed, f"generator/{k}")))
        if fake_batch.shape[1:] != (p, d):
            raise InvariantViolation(
                f"generator returned shape {fake_batch.shape[1:]}, expected {(p, d)}")
        data = np.concatenate([real_batch, fake_batch], axis=0)
        labels = np.concatenate([np.ones(n_real), np.zeros(fake_batch.shape[0])])
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

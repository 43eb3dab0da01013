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

Both passes work in a time-major workspace (see `_Workspace`) that holds the
hidden states and gates but no copy of the frames. Each step of either pass
builds its [frame, hidden] and then its [frame, r * hidden] input in one
contiguous row buffer, the frame read in place from the caller's batch, and
every matrix product and elementwise op, the logistic included, writes into
the workspace's arrays, so a step allocates nothing. Each op keeps the
operands, shapes and association order of the plain numpy expression it
replaces, so every result is bit-for-bit that expression's. A training
builds one workspace and reuses it in every pass; `bce_loss`, `gru_grad`
and `gru_forward` each build one for their own batch.
"""

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyBatch, InvariantViolation, NotEnoughData
from .params import check_integer, check_number, check_sizes
from .seeding import component_seed

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
        d, h = check_sizes(**{"input width": input_dim, "hidden width": hidden_dim})
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
        d, h = check_sizes(**{"input width": input_dim, "hidden width": hidden_dim})
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


def _sigmoid(x, out=None, mask=None):
    """The logistic of x. Given a bool `mask` of x's shape, it works in place:
    x is overwritten (it ends as 1 + exp(-|x|)) and nothing is allocated."""
    # exp(-|x|) never overflows; for x < 0 the logistic is e / (1 + e).
    # e <= 1, so the max gives the numerator 1 where x >= 0 and e elsewhere.
    if mask is None:
        x = np.array(x, dtype=float)
    mask = np.greater_equal(x, 0.0, out=mask)
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    out = np.maximum(e, mask, out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


class _Workspace:
    """Every array `_forward` and `_backward` write for one (B, P, D) batch.

    It copies no frames: `frames` is the batch itself, time-major, a view.
    `hs` (P+1, B, H) holds the hidden states, row 0's zero, and `zs`, `rs`
    and `hcs` (P, B, H) keep the gates and candidate states for the backward
    pass. The rest is scratch that every step overwrites: `joint` (B, D+H),
    the left operand of a step's products with a gate matrix, which holds
    [x_t, h_t] for the z and r gates and [x_t, r_t * h_t] for the candidate;
    five (B, H) arrays and a (B, H) mask; `wide` (B, D+H) for products with
    a transposed gate matrix; and `w_grad` (D+H, H) and `b_grad` (H,) for
    one step's share of a gate's gradient. The products read `joint`, a
    contiguous array, as they always have: BLAS can round differently on a
    strided operand."""

    def __init__(self, net: GruNet, batch):
        b, p, d = batch.shape
        h = net.hidden_dim
        self.frames = batch.transpose(1, 0, 2)
        self.hs = np.empty((p + 1, b, h))
        self.hs[0] = 0.0
        self.zs, self.rs, self.hcs = (np.empty((p, b, h)) for _ in range(3))
        self.joint, self.wide = np.empty((b, d + h)), np.empty((b, d + h))
        self.scratch = tuple(np.empty((b, h)) for _ in range(5))
        self.mask = np.empty((b, h), dtype=bool)
        self.w_grad = np.empty((d + h, h))
        self.b_grad = np.empty(h)


def _forward(net: GruNet, ws):
    """Run the recurrence over the batch the workspace `ws` was built for,
    writing every step's gates and next hidden state into it; returns the
    logits."""
    d = net.input_dim
    w_z, w_r, w_c, b_z, b_r, b_c = net.w_z, net.w_r, net.w_c, net.b_z, net.b_r, net.b_c
    joint = ws.joint
    x, hidden = joint[:, :d], joint[:, d:]
    a, s1, s2 = ws.scratch[:3]
    for t in range(len(ws.zs)):
        h, z, r, hc = ws.hs[t], ws.zs[t], ws.rs[t], ws.hcs[t]
        # z, r = sigmoid([x, h] @ w + b); hc = tanh([x, r * h] @ w_c + b_c);
        # next h = (1 - z) * hc + z * h
        np.copyto(x, ws.frames[t])
        np.copyto(hidden, h)
        _sigmoid(np.add(np.matmul(joint, w_z, out=a), b_z, out=a), z, ws.mask)
        _sigmoid(np.add(np.matmul(joint, w_r, out=a), b_r, out=a), r, ws.mask)
        np.multiply(r, h, out=hidden)
        np.tanh(np.add(np.matmul(joint, w_c, out=a), b_c, out=a), out=hc)
        np.multiply(np.subtract(1.0, z, out=s1), hc, out=s1)
        np.add(s1, np.multiply(z, h, out=s2), out=ws.hs[t + 1])
    return ws.hs[-1] @ net.w_out + net.b_out


def _bce_from_logits(logits, labels):
    """Numerically stable mean binary cross-entropy."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean(np.maximum(logits, 0.0) - logits * labels
                         + np.log1p(np.exp(-np.abs(logits)))))


def _check_finite(values, what):
    # A sum of finite terms is finite unless it overflows, so only a
    # non-finite sum needs the elementwise test and its temporary.
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not math.isfinite(total) and not np.isfinite(values).all():
        raise InvariantViolation(f"{what} has non-finite frames")


def _as_batch(data):
    """`data`, a Corpus or an array, as a (signs, frames, features) float
    array. An array's frames must be finite; a Corpus's were checked when it
    was built."""
    is_corpus = hasattr(data, "features")
    batch = np.asarray(data.features if is_corpus else data, dtype=float)
    if batch.ndim != 3:
        raise InvariantViolation("a batch must be (signs, frames, features)")
    if not is_corpus:
        _check_finite(batch, "batch")
    return batch


def _check_width(net, width):
    if width != net.input_dim:
        raise InvariantViolation(
            f"batch has {width} features per frame, the net takes {net.input_dim}")


def _as_labeled_batch(net, batch, labels, action):
    batch = _as_batch(batch)
    _check_width(net, batch.shape[2])
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
    _check_width(net, seq.shape[1])
    _check_finite(seq, "sequence")
    prob = float(_sigmoid(_forward(net, _Workspace(net, seq[None])))[0])
    tiny = 1e-15
    return min(max(prob, tiny), 1.0 - tiny)


def bce_loss(net: GruNet, batch, labels) -> float:
    """Mean binary cross-entropy of the net on a labeled batch."""
    batch, labels = _as_labeled_batch(net, batch, labels, "score")
    return _bce_from_logits(_forward(net, _Workspace(net, batch)), labels)


def _backward(net: GruNet, ws, logits, labels) -> np.ndarray:
    """Backpropagation through time over the workspace one `_forward` filled:
    the gradient of the mean BCE as a flat vector in theta's layout."""
    b = logits.shape[0]
    d = net.input_dim
    w_z, w_r, w_c = net.w_z, net.w_r, net.w_c
    grad = np.zeros_like(net.theta)
    g = _blocks(grad, d, net.hidden_dim)
    g_w_z, g_w_r, g_w_c = g["w_z"], g["w_r"], g["w_c"]
    g_b_z, g_b_r, g_b_c = g["b_z"], g["b_r"], g["b_c"]
    dh, dz, da_c, da_r, tmp = ws.scratch
    joint, wide, w_grad, b_grad = ws.joint, ws.wide, ws.w_grad, ws.b_grad
    x, hidden = joint[:, :d], joint[:, d:]
    dq = wide[:, d:]
    dlogits = (_sigmoid(logits) - labels) / b
    np.matmul(ws.hs[-1].T, dlogits, out=g["w_out"])
    grad[-1] = dlogits.sum()
    np.outer(dlogits, net.w_out, out=dh)

    for t in reversed(range(len(ws.zs))):
        h_prev, z, r, hc = ws.hs[t], ws.zs[t], ws.rs[t], ws.hcs[t]
        # joint = [x, r * h_prev] for w_c's gradient, then [x, h_prev] for w_r's and w_z's
        np.copyto(x, ws.frames[t])
        np.multiply(r, h_prev, out=hidden)
        # dz = dh * (h_prev - hc), da_c = dh * (1 - z) * (1 - hc * hc)
        np.multiply(dh, np.subtract(h_prev, hc, out=dz), out=dz)
        np.multiply(dh, np.subtract(1.0, z, out=da_c), out=da_c)
        np.multiply(da_c, np.subtract(1.0, np.multiply(hc, hc, out=tmp), out=tmp), out=da_c)
        g_w_c += np.matmul(joint.T, da_c, out=w_grad)
        g_b_c += np.sum(da_c, axis=0, out=b_grad)
        # dq = (da_c @ w_c.T)[:, d:], da_r = dq * h_prev * r * (1 - r)
        np.matmul(da_c, w_c.T, out=wide)
        np.multiply(np.multiply(dq, h_prev, out=da_r), r, out=da_r)
        np.multiply(da_r, np.subtract(1.0, r, out=tmp), out=da_r)
        # da_z = dz * z * (1 - z), in dz's place
        np.multiply(np.multiply(dz, z, out=dz), np.subtract(1.0, z, out=tmp), out=dz)
        np.copyto(hidden, h_prev)
        g_w_r += np.matmul(joint.T, da_r, out=w_grad)
        g_b_r += np.sum(da_r, axis=0, out=b_grad)
        g_w_z += np.matmul(joint.T, dz, out=w_grad)
        g_b_z += np.sum(dz, axis=0, out=b_grad)
        # dh = dh * z + dq * r + (da_r @ w_r.T)[:, d:] + (da_z @ w_z.T)[:, d:]
        np.add(np.multiply(dh, z, out=dh), np.multiply(dq, r, out=tmp), out=dh)
        np.add(dh, np.matmul(da_r, w_r.T, out=wide)[:, d:], out=dh)
        np.add(dh, np.matmul(dz, w_z.T, out=wide)[:, d:], out=dh)

    return grad


def _loss_and_grad(net: GruNet, labels, ws):
    """(mean BCE, flat gradient) from one forward pass over the checked batch
    the workspace `ws` was built for."""
    logits = _forward(net, ws)
    return _bce_from_logits(logits, labels), _backward(net, ws, logits, labels)


def gru_grad(net: GruNet, batch, labels) -> GruNet:
    """Exact gradients of the mean BCE with respect to every parameter block.

    Returned as a GruNet whose blocks hold the gradients.
    """
    batch, labels = _as_labeled_batch(net, batch, labels, "take gradients on")
    _, grad = _loss_and_grad(net, labels, _Workspace(net, batch))
    return net.from_vector(grad)


def train_gru(net: GruNet, batch, labels, *, epochs=50, lr=1e-2):
    """Full-batch Adam-style training. Returns (net, per-epoch train BCE).

    The trace has epochs + 1 entries; entry 0 is the untrained loss and
    entry t the loss after t steps. Entry t < epochs comes from the forward
    pass behind step t+1's gradient, so training runs epochs + 1 forwards.
    """
    batch, labels = _as_labeled_batch(net, batch, labels, "train on")
    (epochs,) = check_sizes(least=0, epochs=epochs)
    lr = check_number("lr", lr, lambda v: 0.0 < v < math.inf, "positive and finite")
    theta = net.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    ws = _Workspace(net, batch)
    trace = []
    for t in range(1, epochs + 1):
        loss, grad = _loss_and_grad(net, labels, ws)
        trace.append(loss)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        net = net.from_vector(theta)
    trace.append(_bce_from_logits(_forward(net, ws), labels))
    return net, trace


@dataclass
class EvalReport:
    """Discriminator scores for one generator: mean, spread, per-seed values."""

    bce_mean: float
    bce_std: float
    n_seeds: int
    per_seed: list
    options: dict

    def to_dict(self):
        return asdict(self)


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
    n_seeds, hidden_dim = check_sizes(n_seeds=n_seeds, hidden_dim=hidden_dim)
    (epochs,) = check_sizes(least=0, epochs=epochs)
    lr = check_number("lr", lr, lambda v: 0.0 < v < math.inf, "positive and finite")
    split = check_number("split", split, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
    seed = check_integer("seed", seed)
    real_batch = _as_batch(real)
    n_real, _, d = real_batch.shape
    if n_real < 10:
        raise NotEnoughData("generator evaluation needs at least 10 real signs")
    per_seed = []
    for k in range(n_seeds):
        fake_batch = _as_batch(generator(n_real, component_seed(seed, f"generator/{k}")))
        if fake_batch.shape != real_batch.shape:
            raise InvariantViolation(
                f"generator returned shape {fake_batch.shape}, expected {real_batch.shape}")
        labels = np.concatenate([np.ones(n_real), np.zeros(n_real)])
        rng = np.random.default_rng(component_seed(seed, f"discriminator/{k}"))
        train_idx, test_idx = _stratified_split(rng, labels, split)
        # Only the two slices outlive the joined batch and the draw, so the
        # training's workspace can take their memory.
        data = np.concatenate([real_batch, fake_batch], axis=0)
        train, test = data[train_idx], data[test_idx]
        del data, fake_batch
        net = GruNet.random(d, hidden_dim, rng)
        net, trace = train_gru(net, train, labels[train_idx], epochs=epochs, lr=lr)
        per_seed.append(bce_loss(net, test, labels[test_idx]))
        log.info("discriminator seed %d: train bce %.6f -> %.6f, test bce %.6f",
                 k, trace[0], trace[-1], per_seed[-1])
    mean = float(np.mean(per_seed))
    std = float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0
    options = {"n_seeds": n_seeds, "split": split, "epochs": epochs,
               "lr": lr, "hidden_dim": hidden_dim, "seed": seed}
    return EvalReport(bce_mean=mean, bce_std=std, n_seeds=n_seeds,
                      per_seed=per_seed, options=options)

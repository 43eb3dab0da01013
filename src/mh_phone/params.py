"""Containers for model parameters, hyperparameters and hard assignments.

State 0 is the end state: its prototype is pinned to the zero vector, which
is exactly the padding token appended to every sign. All probability vectors
must sum to 1 within 1e-9 and the shared `sigma` holds per-dimension
variances of the diagonal emission Gaussian.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantViolation

_SUM_TOL = 1e-9


def _frozen_array(value, dtype=float):
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_stochastic(arr, what):
    """Every row of `arr` (or `arr` itself, for a vector) must be a distribution."""
    for i, vec in enumerate(np.atleast_2d(arr)):
        name = what if arr.ndim == 1 else f"{what} row {i}"
        if np.any(vec < 0):
            raise InvariantViolation(f"{name} has negative entries")
        if abs(float(vec.sum()) - 1.0) > _SUM_TOL:
            raise InvariantViolation(f"{name} does not sum to 1 (got {vec.sum():.12f})")


class _Params:
    """Base of the frozen parameter containers.

    Fields typed np.ndarray become read-only float arrays and fields typed
    float become floats; every value must be finite. Each kind then checks
    its own rules in `_check`. `to_dict` writes the fields in declaration
    order, which is the key order of the model file.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            value = _frozen_array(value) if f.type is np.ndarray else float(value)
            if not np.all(np.isfinite(value)):
                raise InvariantViolation(f"{f.name} has non-finite entries")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check_emission(self, rows, what):
        """mu is (N, D) with (N,) == rows, else raise `what`; sigma holds D
        strictly positive variances."""
        if self.mu.ndim != 2 or self.mu.shape[:1] != rows:
            raise InvariantViolation(what)
        if self.sigma.shape != (self.mu.shape[1],):
            raise InvariantViolation("sigma must have one entry per feature")
        if np.any(self.sigma <= 0):
            raise InvariantViolation("sigma must be strictly positive")

    def to_dict(self):
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}

    @classmethod
    def from_dict(cls, data):
        return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class Hyperparams(_Params):
    """Prior hyperparameters shared by the model and the baselines.

    alpha: symmetric Dirichlet concentration for pi and the rows of T;
    mu_mu / sigma_mu: mean and std of the Gaussian prior on prototype means;
    mu_sigma / sigma_sigma: location and scale of the LogNormal prior on the
    emission variances.
    """

    alpha: float = 1.0
    mu_mu: float = 0.0
    sigma_mu: float = 10.0
    mu_sigma: float = 1.0
    sigma_sigma: float = 10.0

    def _check(self):
        for name in ("alpha", "sigma_mu", "sigma_sigma"):
            if not getattr(self, name) > 0:
                raise InvariantViolation(f"{name} must be positive")


@dataclass(frozen=True)
class ModelParams(_Params):
    """Parameters of the sequence model.

    pi: (N,) start distribution; trans: (N, N) row-stochastic transitions;
    mu: (N, D) prototype means with row 0 fixed at zero; sigma: (D,)
    shared emission variances.
    """

    pi: np.ndarray
    trans: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def _check(self):
        if self.pi.ndim != 1 or self.pi.size < 1:
            raise InvariantViolation("pi must be a non-empty vector")
        n = self.pi.shape[0]
        if self.trans.shape != (n, n):
            raise InvariantViolation("trans must be square and match len(pi)")
        self._check_emission((n,), "mu must have one row per state")
        _check_stochastic(self.pi, "pi")
        _check_stochastic(self.trans, "trans")
        if np.any(self.mu[0] != 0.0):
            raise InvariantViolation("mu row 0 (end state) must be exactly zero")

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True)
class GmmParams(_Params):
    """weights: (N,) mixing proportions; mu: (N, D) means; sigma: (D,) variances."""

    weights: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def _check(self):
        self._check_emission(self.weights.shape,
                             "weights and mu must agree on the component count")
        _check_stochastic(self.weights, "weights")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class GmmLdaParams(_Params):
    """Topic-mixture GMM parameters.

    topic_word: (T, N) rows are each topic's distribution over prototypes;
    topic_freq: (T,) learned frequency of topics across signs;
    doc_topic_prior / word_prior: Dirichlet concentrations used in fitting.
    """

    topic_word: np.ndarray
    topic_freq: np.ndarray
    doc_topic_prior: float
    word_prior: float
    mu: np.ndarray
    sigma: np.ndarray

    def _check(self):
        if self.topic_word.ndim != 2 or self.topic_freq.shape != self.topic_word.shape[:1]:
            raise InvariantViolation("topic_word and topic_freq must agree on the topic count")
        self._check_emission(self.topic_word.shape[1:],
                             "topic_word columns must match the prototype count")
        _check_stochastic(self.topic_freq, "topic_freq")
        _check_stochastic(self.topic_word, "topic_word")
        if not (self.doc_topic_prior > 0 and self.word_prior > 0):
            raise InvariantViolation("Dirichlet concentrations must be positive")

    @property
    def n_topics(self) -> int:
        return self.topic_word.shape[0]

    @property
    def n_components(self) -> int:
        return self.topic_word.shape[1]


# The one place model kinds are named: the `kind` field of a model file and
# the parameter class it loads into.
MODEL_KINDS = {"dbn": ModelParams, "gmm": GmmParams, "gmm-lda": GmmLdaParams}


@dataclass(frozen=True)
class Assignment:
    """Hard state labels, one per frame: labels[w, f] in [0, N)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = _frozen_array(self.labels, dtype=np.int64)
        if labels.ndim != 2:
            raise InvariantViolation("labels must be a signs-by-frames matrix")
        if np.any(labels < 0):
            raise InvariantViolation("labels must be non-negative state indices")
        object.__setattr__(self, "labels", labels)

    @property
    def shape(self):
        return self.labels.shape


@dataclass
class FitReport:
    """Outcome of an EM run: iteration count, objective trace, stop reason."""

    iterations: int
    log_joint_trace: list
    converged: bool


def make_truth_params(n_states, n_features=14, seed=0, *, self_stick=0.85,
                      end_prob=0.06, separation=2.0, sigma=0.05,
                      head_at_origin=True) -> ModelParams:
    """Construct a well-separated ground-truth model for synthetic corpora.

    State 0 is absorbing (signs end and stay ended). Prototype rows are drawn
    until every pairwise distance, including the distance to the zero end
    prototype, is at least `separation`. With head_at_origin the first two
    feature dimensions are pinned to zero, matching normalized real data.
    """
    if n_states < 2:
        raise InvariantViolation("need the end state plus at least one prototype")
    if n_features < 1:
        raise InvariantViolation("need at least one feature dimension")
    rng = np.random.default_rng(seed)
    n, d = n_states, n_features

    spread = max(float(separation), 1.0)
    mu = None
    for _ in range(1000):
        cand = rng.normal(0.0, spread, size=(n - 1, d))
        if head_at_origin and d >= 2:
            cand[:, :2] = 0.0
        pts = np.vstack([np.zeros(d), cand])
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= separation:
            mu = pts
            break
    if mu is None:
        raise InvariantViolation("could not place prototypes at the requested separation")

    pi = np.zeros(n)
    pi[1:] = rng.dirichlet(np.full(n - 1, 5.0))
    pi /= pi.sum()

    trans = np.zeros((n, n))
    trans[0, 0] = 1.0
    for i in range(1, n):
        stay = float(self_stick)
        leave = 1.0 - stay
        row = np.zeros(n)
        row[i] = stay
        others = [j for j in range(1, n) if j != i]
        if others:
            to_end = min(float(end_prob), leave)
            row[0] = to_end
            rest = leave - to_end
            if rest > 0:
                row[others] = rest * rng.dirichlet(np.full(len(others), 3.0))
        else:
            row[0] = leave
        trans[i] = row / row.sum()

    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=np.full(d, float(sigma)))

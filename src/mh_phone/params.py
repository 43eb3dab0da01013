"""Containers for model parameters, hyperparameters and fit reports, and
the library's rules for the counts and numbers it takes.

State 0 is the end state: its prototype is pinned to the zero vector, which
is exactly the padding token appended to every sign. All probability vectors
must sum to 1 within 1e-9 and the shared `sigma` holds per-dimension
variances of the diagonal emission Gaussian.

Every count the library takes goes through `check_sizes` (an int or numpy
integer, not a bool, and at least a minimum) and every other number through
`check_number`, before any work; both raise InvariantViolation naming it.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvariantViolation

_SUM_TOL = 1e-9
_EXPECTED = {np.ndarray: "a rectangular array of numbers", float: "a number"}


def json_numbers(values) -> bool:
    """Whether every value is a JSON number: an int or a float, never a bool or a str."""
    return set(map(type, values)) <= {int, float}


def integer_type(kind):
    """Whether values of type `kind` are ints or numpy integers, and not bools."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def check_integer(name, value):
    """`value` as an int; raises InvariantViolation("<name> must be an integer,
    got <type>") unless it is an int or a numpy integer, and not a bool."""
    if not integer_type(type(value)):
        raise InvariantViolation(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def check_sizes(*, least=1, **sizes):
    """The counts as ints, in keyword order; raises InvariantViolation naming
    the first that is not an integer (`check_integer`) or else is below
    `least`: "<name> must be at least <least>, got <value>"."""
    for name, value in sizes.items():
        if check_integer(name, value) < least:
            raise InvariantViolation(f"{name} must be at least {least}, got {value}")
    return tuple(map(int, sizes.values()))


def check_number(name, value, ok, rule):
    """`value` as a float; raises InvariantViolation("<name> must be <rule>, got
    ...") unless float() converts it, it is not a bool and ok(number) holds."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvariantViolation(f"{name} must be {rule}, got {value!r}") from None
    if not ok(number):
        raise InvariantViolation(f"{name} must be {rule}, got {number}")
    return number


def _frozen_array(value):
    arr = np.array(value, dtype=float)
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
            try:
                value = _frozen_array(value) if f.type is np.ndarray else float(value)
            except (TypeError, ValueError, OverflowError):  # ragged, not a number, too big
                raise InvariantViolation(f"{f.name} must be {_EXPECTED[f.type]}") from None
            if not np.all(np.isfinite(value)):
                raise InvariantViolation(f"{f.name} has non-finite entries")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check_emission(self, rows, what):
        """mu is (N, D) with (N,) == rows, else raise `what`; sigma holds
        D >= 1 strictly positive variances."""
        if self.mu.ndim != 2 or self.mu.shape[:1] != rows:
            raise InvariantViolation(what)
        if self.sigma.shape != (self.mu.shape[1],) or not self.sigma.size:
            raise InvariantViolation("sigma must have one entry for each of D >= 1 features")
        if np.any(self.sigma <= 0):
            raise InvariantViolation("sigma must be strictly positive")

    def to_dict(self):
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}

    @classmethod
    def from_dict(cls, data):
        """Build from parsed JSON: JSON numbers, or lists of them nested to one depth."""
        for f in fields(cls):
            if not json_numbers(np.array(data[f.name], dtype=object).flat):
                raise InvariantViolation(f"{f.name} must be {_EXPECTED[f.type]}")
        return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class Hyperparams(_Params):
    """Prior hyperparameters shared by the model and the baselines.

    Each field's default is also its command-line default, and its "help"
    metadata the flag's help text.
    """

    alpha: float = field(default=1.0, metadata={
        "help": "symmetric Dirichlet concentration for pi and the rows of T"})
    mu_mu: float = field(default=0.0, metadata={
        "help": "mean of the Gaussian prior on prototype coordinates"})
    sigma_mu: float = field(default=10.0, metadata={
        "help": "std of the Gaussian prior on prototype coordinates"})
    mu_sigma: float = field(default=1.0, metadata={
        "help": "location of the LogNormal prior on emission variances"})
    sigma_sigma: float = field(default=10.0, metadata={
        "help": "scale of the LogNormal prior on emission variances"})

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


@dataclass
class FitReport:
    """Outcome of an EM run: iteration count, objective trace, stop reason."""

    iterations: int
    log_joint_trace: list
    converged: bool


def make_truth_params(n_states, n_features=14, seed=0, *, self_stick=0.85,
                      end_prob=0.06, separation=2.0, sigma=0.05) -> ModelParams:
    """Construct a well-separated ground-truth model for synthetic corpora.

    State 0 is absorbing (signs end and stay ended). Prototype rows are drawn
    until every pairwise distance, including the distance to the zero end
    prototype, is at least `separation`. The first two feature dimensions
    are pinned to zero, matching normalized real data.
    """
    n, d = check_sizes(least=2, n_states=n_states) + check_sizes(n_features=n_features)
    rng = np.random.default_rng(seed)

    spread = max(float(separation), 1.0)
    for _ in range(1000):
        cand = rng.normal(0.0, spread, size=(n - 1, d))
        if d >= 2:
            cand[:, :2] = 0.0
        mu = np.vstack([np.zeros(d), cand])
        with np.errstate(over="ignore", invalid="ignore"):
            dists = np.linalg.norm(mu[:, None, :] - mu[None, :, :], axis=-1)
        if not np.all(np.isfinite(dists)):
            raise InvariantViolation(f"separation {separation:g} is too large: prototype "
                                     "distances overflow float64")
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= separation:
            break
    else:
        raise InvariantViolation("could not place prototypes at the requested separation")

    pi = np.zeros(n)
    pi[1:] = rng.dirichlet(np.full(n - 1, 5.0))
    pi /= pi.sum()

    # A live state holds with self_stick, ends with end_prob (at most all it
    # leaves with; all of it when it is the only live state) and spreads the
    # rest over the other live states by one Dirichlet row each.
    leave = 1.0 - float(self_stick)
    to_end = min(float(end_prob), leave) if n > 2 else leave
    trans = np.zeros((n, n))
    trans[0, 0] = 1.0
    trans[1:, 0] = to_end
    moves = rng.dirichlet(np.full(n - 2, 3.0), size=n - 1)
    live = trans[1:, 1:]
    live[~np.eye(n - 1, dtype=bool)] = (leave - to_end) * moves.ravel()
    np.fill_diagonal(live, float(self_stick))
    trans /= trans.sum(axis=1, keepdims=True)

    return ModelParams(pi=pi, trans=trans, mu=mu, sigma=np.full(d, float(sigma)))

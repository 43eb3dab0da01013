"""Corpus handling: pose normalization, padding, JSONL persistence, synthesis.

A sign is a sequence of upper-body keypoint frames. Each frame carries seven
named 2-D points which normalization flattens to a 14-vector: the head is
moved to the origin and the unit of length is the mean of the two
head-to-shoulder distances. Signs are padded to a fixed frame count with the
all-zero end token, and zero rows always form a contiguous suffix.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScale, InvariantViolation, ParseError, TooLong
from .estimation import markov_chain_sample
from .params import Assignment, ModelParams

KEYPOINTS = (
    "head",
    "right_shoulder",
    "left_shoulder",
    "right_elbow",
    "left_elbow",
    "right_wrist",
    "left_wrist",
)
FEATURE_ORDER = tuple(f"{name}.{axis}" for name in KEYPOINTS for axis in ("x", "y"))
NOISE_LEVELS = ("none", "low", "medium", "high", "broken")

N_FEATURES = len(FEATURE_ORDER)  # D = 14
DEFAULT_FRAMES = 25  # P

CORPUS_FORMAT = "mh-corpus"
CORPUS_VERSION = 1


def normalize_pose(raw_frame) -> np.ndarray:
    """Flatten one frame of raw keypoints into normalized features.

    raw_frame maps each KEYPOINTS name to an (x, y) pair in camera
    coordinates. The head is translated to the origin and all coordinates
    are divided by the mean of the two head-to-shoulder distances, so the
    output is invariant to where the signer stands and how large they
    appear. Raises DegenerateScale when both shoulders coincide with the
    head.
    """
    points = {}
    for name in KEYPOINTS:
        if name not in raw_frame:
            raise InvariantViolation(f"frame is missing keypoint '{name}'")
        pt = np.asarray(raw_frame[name], dtype=float)
        if pt.shape != (2,) or not np.all(np.isfinite(pt)):
            raise InvariantViolation(f"keypoint '{name}' must be a finite (x, y) pair")
        points[name] = pt
    head = points["head"]
    d_right = float(np.linalg.norm(points["right_shoulder"] - head))
    d_left = float(np.linalg.norm(points["left_shoulder"] - head))
    scale = 0.5 * (d_right + d_left)
    if scale <= 0.0:
        raise DegenerateScale("both head-shoulder distances are zero")
    out = np.empty(N_FEATURES)
    for k, name in enumerate(KEYPOINTS):
        out[2 * k: 2 * k + 2] = (points[name] - head) / scale
    out[:2] = 0.0  # the head lands on the origin exactly, no float residue
    return out


@dataclass(frozen=True)
class RawSign:
    """A sign as it comes off the keypoint extractor, before normalization."""

    gloss: str
    signer_id: str
    noise_level: str
    frames: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.noise_level not in NOISE_LEVELS:
            raise InvariantViolation(
                f"noise_level must be one of {NOISE_LEVELS}, got '{self.noise_level}'")
        if len(self.frames) == 0:
            raise InvariantViolation("a raw sign needs at least one frame")
        object.__setattr__(self, "frames", tuple(self.frames))


@dataclass(frozen=True)
class SignSequence:
    """A normalized, padded sign: features is (P, D) with true_length data rows."""

    gloss: str
    features: np.ndarray
    true_length: int
    signer: str = ""
    noise: str = "none"

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2:
            raise InvariantViolation("features must be a frames-by-dimensions matrix")
        if not np.all(np.isfinite(feats)):
            raise InvariantViolation("features must be finite")
        n_frames = feats.shape[0]
        if not (1 <= self.true_length <= n_frames):
            raise InvariantViolation(
                f"true_length must be in [1, {n_frames}], got {self.true_length}")
        if self.noise not in NOISE_LEVELS:
            raise InvariantViolation(
                f"noise must be one of {NOISE_LEVELS}, got '{self.noise}'")
        zero_rows = ~feats.any(axis=1)
        if not zero_rows[self.true_length:].all():
            raise InvariantViolation(
                "end token violation: rows past true_length must be exactly zero")
        if zero_rows.any():
            first_zero = int(np.argmax(zero_rows))
            if not zero_rows[first_zero:].all():
                raise InvariantViolation(
                    "end token violation: zero rows must form a contiguous suffix")
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def pad_sign(frames, n_frames=DEFAULT_FRAMES, *, gloss="", signer="", noise="none") -> SignSequence:
    """Pad a (L, D) block of data frames with zero rows up to n_frames."""
    arr = np.asarray(frames, dtype=float)
    if arr.ndim != 2:
        raise InvariantViolation("frames must be a 2-D array")
    length = arr.shape[0]
    if length < 1:
        raise InvariantViolation("a sign needs at least one frame")
    if length > n_frames:
        raise TooLong(f"sign has {length} frames, more than the padded length {n_frames}")
    out = np.zeros((n_frames, arr.shape[1]))
    out[:length] = arr
    return SignSequence(gloss=gloss, features=out, true_length=length,
                        signer=signer, noise=noise)


def ingest_raw_sign(raw: RawSign, n_frames=DEFAULT_FRAMES) -> SignSequence:
    """Normalize every frame of a RawSign and pad to n_frames."""
    data = np.stack([normalize_pose(frame) for frame in raw.frames])
    return pad_sign(data, n_frames, gloss=raw.gloss, signer=raw.signer_id,
                    noise=raw.noise_level)


class Corpus:
    """An immutable collection of signs with consistent dimensions."""

    __slots__ = ("signs", "_features", "_true_lengths")

    def __init__(self, signs):
        signs = tuple(signs)
        if not signs:
            raise InvariantViolation("a corpus must contain at least one sign")
        p, d = signs[0].features.shape
        for k, sign in enumerate(signs):
            if sign.features.shape != (p, d):
                raise InvariantViolation(
                    f"sign {k} has shape {sign.features.shape}, expected {(p, d)}")
        features = np.stack([s.features for s in signs])
        features.flags.writeable = False
        lengths = np.array([s.true_length for s in signs], dtype=np.int64)
        lengths.flags.writeable = False
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "_features", features)
        object.__setattr__(self, "_true_lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError("Corpus objects are immutable")

    def __len__(self):
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def __getitem__(self, idx):
        return self.signs[idx]

    @property
    def dims(self):
        """(M, P, D): sign count, padded frame count, feature count."""
        m = len(self.signs)
        p, d = self.signs[0].features.shape
        return (m, p, d)

    @property
    def features(self) -> np.ndarray:
        """(M, P, D) stacked feature array, padding included."""
        return self._features

    @property
    def true_lengths(self) -> np.ndarray:
        return self._true_lengths

    def without_noise(self, *levels) -> "Corpus":
        """Copy of the corpus with the given noise levels dropped."""
        kept = [s for s in self.signs if s.noise not in levels]
        if not kept:
            raise InvariantViolation(
                f"corpus is empty after dropping noise levels {levels}")
        return Corpus(kept)


def save_corpus(corpus: Corpus, path, config=None):
    """Write a corpus as JSONL: one header line, then one record per sign.

    Padding rows are trimmed; they are reapplied on load.
    """
    _, p, d = corpus.dims
    if d == N_FEATURES:
        order = list(FEATURE_ORDER)
    else:
        order = [f"f{i}" for i in range(d)]
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION,
              "D": d, "P": p, "feature_order": order}
    if config is not None:
        header["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for sign in corpus.signs:
            record = {
                "gloss": sign.gloss,
                "signer": sign.signer,
                "noise": sign.noise,
                "frames": sign.features[:sign.true_length].tolist(),
            }
            fh.write(json.dumps(record) + "\n")


def _parse_record(obj, p, d, line):
    for key in ("gloss", "signer", "noise", "frames"):
        if key not in obj:
            raise ParseError(f"record is missing key '{key}'", line=line)
    frames = obj["frames"]
    if not isinstance(frames, list) or not frames:
        raise InvariantViolation(f"line {line}: frames must be a non-empty list")
    arr = np.asarray(frames, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != d:
        got = arr.shape[1] if arr.ndim == 2 else "ragged"
        raise InvariantViolation(
            f"line {line}: expected {d} features per frame, got {got}")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"line {line}: non-finite feature value")
    zero_rows = ~arr.any(axis=1)
    if zero_rows.any():
        first_zero = int(np.argmax(zero_rows))
        if not zero_rows[first_zero:].all():
            raise InvariantViolation(
                f"line {line}: end token violation, nonzero frame after a zero frame")
    try:
        return pad_sign(arr, p, gloss=str(obj["gloss"]), signer=str(obj["signer"]),
                        noise=obj["noise"])
    except InvariantViolation as exc:
        raise type(exc)(f"line {line}: {exc}") from None


def load_corpus(path) -> Corpus:
    """Read a JSONL corpus, repad every sign and validate invariants."""
    signs = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty corpus file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON header: {exc.msg}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
        raise ParseError(f"not a {CORPUS_FORMAT} file", line=1)
    if header.get("version") != CORPUS_VERSION:
        raise ParseError(f"unsupported corpus version {header.get('version')}", line=1)
    try:
        p = int(header["P"])
        d = int(header["D"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("header must carry integer D and P", line=1) from None
    order = header.get("feature_order")
    if order is not None and len(order) != d:
        raise InvariantViolation(f"line 1: feature_order lists {len(order)} names for D={d}")
    for i, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON record: {exc.msg}", line=i) from None
        signs.append(_parse_record(obj, p, d, i))
    if not signs:
        raise InvariantViolation("corpus file contains a header but no signs")
    return Corpus(signs)


def synth_corpus(truth: ModelParams, m_signs, seed, *, n_frames=DEFAULT_FRAMES,
                 exact_end_token=True, gloss_prefix="synth"):
    """Ancestral sampling of a corpus from a known model.

    Returns (corpus, assignment): the assignment holds the hidden state chain
    of every sign, which keeps evolving under the transition matrix even
    after the end state is first entered. With exact_end_token, emitted
    frames are zeroed from the first entry into state 0 onward so zero rows
    form a contiguous suffix; otherwise every frame is a Gaussian draw.
    """
    m_signs = int(m_signs)
    if m_signs < 1:
        raise InvariantViolation("m_signs must be at least 1")
    rng = np.random.default_rng(seed)
    p, d = int(n_frames), truth.n_features
    labels = markov_chain_sample(rng, truth.pi, truth.trans, m_signs, p)
    feats = truth.mu[labels] + rng.standard_normal((m_signs, p, d)) * np.sqrt(truth.sigma)
    if exact_end_token:
        ended = np.cumsum(labels == 0, axis=1) > 0
        feats[ended] = 0.0
        any_end = ended[:, -1]
        first_end = np.where(any_end, np.argmax(ended, axis=1), p)
        lengths = np.clip(first_end, 1, p)
    else:
        lengths = np.full(m_signs, p)
    return sampled_corpus(feats, lengths, gloss_prefix), Assignment(labels=labels)


def sampled_corpus(features, lengths, gloss_prefix) -> Corpus:
    """Sampled (M, P, D) features as a corpus: sign i has lengths[i] data
    rows, gloss `<gloss_prefix>-<i>` (i zero-padded to at least five digits),
    signer "sampler" and noise "none"."""
    m_signs = features.shape[0]
    width = max(5, len(str(m_signs - 1)))
    return Corpus(
        SignSequence(gloss=f"{gloss_prefix}-{i:0{width}d}", features=features[i],
                     true_length=int(lengths[i]), signer="sampler", noise="none")
        for i in range(m_signs))

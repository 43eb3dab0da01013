"""Corpus handling: pose normalization, padding, JSONL persistence, synthesis.

A sign is a sequence of upper-body keypoint frames. Each frame carries seven
named 2-D points which normalization flattens to a 14-vector: the head is
moved to the origin and the unit of length is the mean of the two
head-to-shoulder distances. Signs are padded to a fixed frame count with the
all-zero end token, and zero rows always form a contiguous suffix.

A Corpus is columnar: read-only `features` (M, P, D), `true_lengths` (M,) and
(M,) `glosses`, `signers` and `noises` arrays, and nothing else. Every corpus is
built by its one validating constructor, `Corpus.from_arrays`, which checks all
signs at once with `check_signs` and stores C-order features, padding as +0.0;
`ingest_raw_signs` normalizes and pads raw keypoint signs into one.

`save_corpus` writes a JSONL in one pass in this process, spelling the
floats of a run of signs at once with the numpy kernel of `floatrepr`, byte
for byte as `json.dumps`. `load_corpus` decodes a JSONL in one pass too. A
path ending in `.npz` holds a binary corpus instead, and every JSONL saved to
a regular file gets a binary companion `<path>.npz` that a load reads in its
place while the JSONL's SHA-256 still matches the one it records.
"""

import hashlib
import io
import json
import os
import zipfile
import zlib
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import DegenerateScale, InvariantViolation, ParseError, TooLong
from .estimation import gaussian_frames, markov_chain_sample
from .io import output_file, special_file
from .params import ModelParams, check_sizes, integer_type, json_numbers

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


def check_signs(features, lengths, noises):
    """Check (M, P, D) features, (M,) true lengths and (M,) noise levels at once:
    finite features, lengths in [1, P], noise levels in NOISE_LEVELS, zero rows
    past the true length, and zero rows only as a contiguous suffix. Raises on
    the first bad sign, with its index as the error's `sign`."""
    p = features.shape[1]
    zero_rows = ~features.any(axis=2)
    rules = (
        (~np.isfinite(features).all(axis=(1, 2)), "features must be finite"),
        ((lengths < 1) | (lengths > p), "true_length must be in [1, {p}], got {length}"),
        (~np.isin(noises, NOISE_LEVELS), "noise must be one of {levels}, got '{noise}'"),
        ((~zero_rows & (np.arange(p) >= lengths[:, None])).any(axis=1),
         "end token violation: rows past true_length must be exactly zero"),
        ((zero_rows[:, :-1] & ~zero_rows[:, 1:]).any(axis=1),
         "end token violation: zero rows must form a contiguous suffix"),
    )
    bad = np.stack([mask for mask, _ in rules])
    if bad.any():
        sign = int(bad.any(axis=0).argmax())
        _, message = rules[int(bad[:, sign].argmax())]
        raise InvariantViolation(message.format(p=p, length=lengths[sign], levels=NOISE_LEVELS,
                                                noise=noises[sign]), sign=sign)


_TYPES = (("true_length", integer_type, "an integer"),
          ("gloss", lambda kind: issubclass(kind, str), "a string"),
          ("signer", lambda kind: issubclass(kind, str), "a string"))


def _check_types(lengths, glosses, signers):
    """Check that every true length is an integer and every gloss and signer
    a string, column by column, with one check per distinct type in a
    column; raises on the first bad value, with its sign's index as the
    error's `sign`."""
    for (what, accepts, name), column in zip(_TYPES, (lengths, glosses, signers)):
        bad = {kind for kind in set(map(type, column)) if not accepts(kind)}
        if bad:
            sign = next(i for i, value in enumerate(column) if type(value) in bad)
            raise InvariantViolation(
                f"{what} must be {name}, got {type(column[sign]).__name__}", sign=sign)


@dataclass(frozen=True)
class RawSign:
    """A sign as it comes off the keypoint extractor, before normalization."""

    gloss: str
    signer_id: str
    noise_level: str
    frames: tuple

    def __post_init__(self):
        if self.noise_level not in NOISE_LEVELS:
            raise InvariantViolation(
                f"noise_level must be one of {NOISE_LEVELS}, got '{self.noise_level}'")
        if len(self.frames) == 0:
            raise InvariantViolation("a raw sign needs at least one frame")
        object.__setattr__(self, "frames", tuple(self.frames))


class Corpus:
    """An immutable collection of signs with consistent dimensions, built by
    `Corpus.from_arrays`."""

    __slots__ = ("features", "true_lengths", "glosses", "signers", "noises")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build a Corpus with Corpus.from_arrays")

    @classmethod
    def from_arrays(cls, features, true_lengths, glosses, signers, noises) -> "Corpus":
        """The one validating constructor: copy the columns, check that every
        true length is an integer, every gloss and signer a string and every
        sign passes `check_signs`, and store the columns read-only, padding +0.0.

        A C-order float64 `features` array that owns its data and is already
        read-only is kept without a copy; any other is copied to C order, so
        a caller's later writes to its array cannot reach the corpus."""
        if not (type(features) is np.ndarray and features.dtype == np.float64
                and features.flags.owndata and not features.flags.writeable
                and features.flags.c_contiguous):
            features = np.array(features, dtype=float, order="C")
        columns = [np.array(column, dtype=object)
                   for column in (true_lengths, glosses, signers, noises)]
        if features.ndim != 3 or not len(features) or any(
                c.shape != features.shape[:1] for c in columns):
            raise InvariantViolation("a corpus needs (M, P, D) features with M >= 1 and "
                                     "one true length, gloss, signer and noise per sign")
        _check_types(*columns[:3])
        columns[0] = columns[0].astype(np.int64)
        check_signs(features, columns[0], columns[3])
        features.flags.writeable = True  # allowed: the array owns its data
        features[np.arange(features.shape[1]) >= columns[0][:, None]] = 0.0
        corpus = object.__new__(cls)
        for name, column in zip(cls.__slots__, (features, *columns)):
            column.flags.writeable = False
            object.__setattr__(corpus, name, column)
        return corpus

    def __setattr__(self, name, value):
        raise AttributeError("Corpus objects are immutable")

    def __len__(self):
        return len(self.true_lengths)

    @property
    def dims(self):
        """(M, P, D): sign count, padded frame count, feature count."""
        return self.features.shape

    def without_noise(self, *levels) -> "Corpus":
        """The corpus with the given noise levels dropped: a copy, or this
        corpus itself when it holds none of them."""
        kept = ~np.isin(self.noises, levels)
        if kept.all():
            return self
        if not kept.any():
            raise InvariantViolation(
                f"corpus is empty after dropping noise levels {levels}")
        features = self.features[kept]
        features.flags.writeable = False  # a new array, so the corpus adopts it without a copy
        return Corpus.from_arrays(features, self.true_lengths[kept],
                                  self.glosses[kept], self.signers[kept], self.noises[kept])


def ingest_raw_signs(raws, n_frames=DEFAULT_FRAMES) -> Corpus:
    """Normalize every frame of each RawSign and pad the signs with the
    all-zero end token to n_frames, as one corpus. Raises TooLong for a sign
    with more than n_frames frames, InvariantViolation for no signs."""
    raws = list(raws)
    lengths = [len(raw.frames) for raw in raws]
    too_long = [length for length in lengths if length > n_frames]
    if too_long:
        raise TooLong(f"sign has {too_long[0]} frames, more than the padded length {n_frames}")
    features = np.zeros((len(raws), n_frames, N_FEATURES))
    for i, raw in enumerate(raws):
        features[i, :lengths[i]] = [normalize_pose(frame) for frame in raw.frames]
    features.flags.writeable = False  # a new array, so the corpus adopts it without a copy
    return Corpus.from_arrays(features, lengths, [raw.gloss for raw in raws],
                              [raw.signer_id for raw in raws], [raw.noise_level for raw in raws])


def _heads(corpus, start, stop):
    """The start of the JSONL record of each sign in [start, stop), up to the
    "[[" of its frames: the text `json.dumps` gives the record. Each gloss is
    escaped on its own, each distinct signer and noise string of the run once."""
    glosses, signers, noises = (column[start:stop] for column in
                                (corpus.glosses, corpus.signers, corpus.noises))
    escaped = {text: json.dumps(text) for text in {*signers, *noises}}
    return [('{"gloss": %s, "signer": %s, "noise": %s, "frames": [[' % (
        json.dumps(gloss), escaped[signer], escaped[noise])).encode("utf-8")
        for gloss, signer, noise in zip(glosses, signers, noises)]


def _records(corpus):
    """The UTF-8 JSONL records of `corpus`, a run of signs at a time: as
    many as hold at most `floatrepr.BLOCK_VALUES` data values (one sign at
    least), written by one call of `floatrepr.rows_text`."""
    from . import floatrepr  # only a JSONL save needs it; compiling it costs every CLI start
    m, p, d = corpus.dims
    lengths = corpus.true_lengths
    ends = np.cumsum(lengths)
    start, budget = 0, max(1, floatrepr.BLOCK_VALUES // d)
    while start < m:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - lengths[start] + budget,
                                                  "right")))
        yield floatrepr.rows_text(
            corpus.features[start:stop][np.arange(p) < lengths[start:stop, None]],
            lengths[start:stop], _heads(corpus, start, stop), b"]]}\n")
        start = stop


def save_corpus(corpus: Corpus, path, config=None):
    """Write a corpus as JSONL, one header line then one record per sign, or
    as a binary corpus when the path ends in `.npz`.

    JSONL trims padding rows; a load reapplies them. Every value is spelled
    as `json.dumps` spells it, by `floatrepr.rows_text`, a run of signs at a
    time. A JSONL written to a regular file also gets its binary companion
    `<path>.npz`, written after the JSONL is in place; one that cannot be
    written is left out. Every file goes through `io.output_file`, so a
    save that fails or is interrupted leaves the old file, never part of
    the new one.
    """
    m, p, d = corpus.dims
    if d == N_FEATURES:
        order = list(FEATURE_ORDER)
    else:
        order = [f"f{i}" for i in range(d)]
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION,
              "D": d, "P": p, "feature_order": order}
    if config is not None:
        header["config"] = config
    if _is_npz(path):
        with output_file(path) as fh:
            _write_npz(fh, corpus, header)
        return
    companion = _companion(path)
    digest = hashlib.sha256()
    with output_file(path) as fh:
        for data in chain([(json.dumps(header) + "\n").encode("utf-8")], _records(corpus)):
            digest.update(data)
            fh.write(data)
            del data  # not held while the next run is built
    if companion:  # one that cannot be written (a full disk) is left out
        with suppress(OSError), output_file(companion) as fh:
            _write_npz(fh, corpus, header, digest.hexdigest())


# A binary corpus is a zip archive of stored members: `header.json` (the JSONL
# header object), `strings.json` (the glosses, signers and noises as JSON
# lists, which keep every string exactly; numpy's U arrays drop trailing NULs),
# and `true_lengths.npy` (int64, (M,)) and `features.npy` (float64, (M, P, D),
# padding rows +0.0) in numpy's .npy format. A companion adds `jsonl.sha256`,
# the hex SHA-256 of the JSONL bytes it was written with.
_DIGEST = "jsonl.sha256"
_BLOCK_BYTES = 1 << 18  # the unit of buffered binary reads and hashing


def _is_npz(path):
    return os.fsdecode(path).lower().endswith(".npz")


def _companion(path):
    """The JSONL `path`'s binary companion `<path>.npz`, or None where either
    path holds a pipe, device or directory: a pipe reads once, so it is not
    hashed, and a companion takes the place of nothing but a file."""
    companion = os.fsdecode(path) + ".npz"
    return None if special_file(path) or special_file(companion) else companion


def _member(name):
    """A stored zip member with a fixed timestamp, so one corpus always
    gives the same bytes."""
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def _write_npy(zf, name, array):
    """Write the C-order `array` as the .npy member `name`, its own buffer
    after the header, without a copy."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, np.lib.format.header_data_from_array_1_0(array))
    info = _member(name)
    info.file_size = head.tell() + array.nbytes  # sizes the member's zip64 fields
    with zf.open(info, "w") as fh:
        fh.write(head.getvalue())
        fh.write(memoryview(array).cast("B"))


def _write_npz(fh, corpus, header, digest=None):
    """Write `corpus` as a binary corpus to the binary handle `fh`; given
    `digest`, as the companion of the JSONL with that SHA-256."""
    strings = {name: getattr(corpus, name).tolist() for name in ("glosses", "signers", "noises")}
    with zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(_member("header.json"), json.dumps(header))
        if digest is not None:
            zf.writestr(_member(_DIGEST), digest)
        zf.writestr(_member("strings.json"), json.dumps(strings))
        _write_npy(zf, "true_lengths.npy", corpus.true_lengths)
        _write_npy(zf, "features.npy", corpus.features)


def _parse_json(raw, what):
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
        raise ParseError(f"malformed JSON {what}: {getattr(exc, 'msg', exc)}") from None


def _parse_header(raw):
    """(P, D) of a corpus file's header line."""
    header = _parse_json(raw, "header")
    if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
        raise ParseError(f"not a {CORPUS_FORMAT} file")
    if not (json_numbers([header.get("version")]) and header["version"] == CORPUS_VERSION):
        raise ParseError(f"unsupported corpus version {header.get('version')}")
    p, d = header.get("P"), header.get("D")
    if not all(type(v) is int and v >= 1 for v in (p, d)):
        raise ParseError("header must carry integers D >= 1 and P >= 1")
    order = header.get("feature_order")
    if order is not None and (not isinstance(order, list) or len(order) != d):
        raise InvariantViolation(f"feature_order must be a list of D={d} names")
    return p, d


_JSON_KINDS = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               list: "an array", dict: "an object"}


def _parse_record(obj, p, d):
    """(frames, gloss, signer, noise) of one record; `check_signs` checks the values."""
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object")
    for key in ("gloss", "signer", "noise", "frames"):
        if key not in obj:
            raise ParseError(f"record is missing key '{key}'")
    for key in ("gloss", "signer", "noise"):
        if not isinstance(obj[key], str):
            raise InvariantViolation(f"{key} must be a string, got {_JSON_KINDS[type(obj[key])]}")
    try:
        frames = np.array(obj["frames"], dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged rows, values that are not numbers
        frames = None
    if frames is None or frames.ndim != 2 or not json_numbers(chain.from_iterable(obj["frames"])):
        raise InvariantViolation(f"frames must be a non-empty list of rows of {d} numbers")
    if frames.shape[1] != d:
        raise InvariantViolation(f"expected {d} features per frame, got {frames.shape[1]}")
    if len(frames) > p:
        raise TooLong(f"sign has {len(frames)} frames, more than the padded length {p}")
    return frames, obj["gloss"], obj["signer"], obj["noise"]


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, _BLOCK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_npy(zf, name, dtype, ndim):
    """The .npy member `name` as a new array that owns its data. Its dtype,
    dimensions and size are checked before anything is allocated, so an
    object array is never unpickled, and the data is read straight into it."""
    info = zf.getinfo(name)
    with zf.open(info) as fh:
        version = np.lib.format.read_magic(fh)
        read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ParseError(f"member {name} has unsupported .npy version {version}")
        shape, fortran_order, found = read_header(fh)
        if (found != dtype or fortran_order or len(shape) != ndim
                or fh.tell() + dtype.itemsize * int(np.prod(shape)) != info.file_size):
            raise ParseError(f"member {name} must hold one C-order {dtype} array, {ndim}-D")
        array = np.empty(shape, dtype)
        data = memoryview(array).cast("B")
        for start in range(0, len(data), _BLOCK_BYTES):
            block = data[start:start + _BLOCK_BYTES]
            if fh.readinto(block) != len(block):
                raise ParseError(f"member {name} is truncated")
    return array


def _read_npz(path, jsonl=None):
    """The corpus in a binary corpus file; given `jsonl`, only when the file
    records that file's SHA-256. A fault raises ParseError or
    InvariantViolation."""
    with open(path, "rb") as fh:  # a missing file raises here, as a missing JSONL does
        try:
            with zipfile.ZipFile(fh) as zf:
                if jsonl is not None and zf.read(_DIGEST).decode("ascii") != _sha256(jsonl):
                    raise ParseError("the JSONL changed after its companion was written")
                p, d = _parse_header(zf.read("header.json"))
                strings = _parse_json(zf.read("strings.json"), "strings")
                lengths = _read_npy(zf, "true_lengths.npy", np.dtype(np.int64), 1)
                features = _read_npy(zf, "features.npy", np.dtype(np.float64), 3)
        # a bad zip, member, header or data: zipfile raises RuntimeError for an
        # encrypted member and OSError for a seek before the file's start
        except (OSError, RuntimeError, ValueError, KeyError, EOFError, MemoryError,
                NotImplementedError, zipfile.BadZipFile, zlib.error) as exc:
            raise ParseError(f"not a readable binary corpus: {exc}") from None
    if features.shape[1:] != (p, d):
        raise InvariantViolation(f"features are {features.shape[1:]} frames by features, "
                                 f"the header says P={p} and D={d}")
    if not isinstance(strings, dict):
        raise ParseError("strings.json must be a JSON object")
    features.flags.writeable = False  # the array becomes the corpus's own, without a copy
    return Corpus.from_arrays(features, lengths, *(strings.get(name) for name in
                                                   ("glosses", "signers", "noises")))


def _decode(fh, p, d):
    """The records on the lines of the open corpus file `fh` after its
    header, as columns: each record's line, true length, gloss, signer and
    noise, and all their data frames stacked into one (rows, D) array. The
    first bad line raises an error that gives its line number."""
    records = []
    for line, raw in enumerate(fh, start=2):
        if raw.strip():
            try:
                records.append((line, *_parse_record(_parse_json(raw, "record"), p, d)))
            except (ParseError, InvariantViolation) as exc:
                raise type(exc)(str(exc), line=line) from None
    if not records:
        raise InvariantViolation("corpus file contains a header but no signs")
    lines, blocks, glosses, signers, noises = zip(*records)
    return lines, [len(b) for b in blocks], glosses, signers, noises, np.concatenate(blocks)


def load_corpus(path) -> Corpus:
    """Read a corpus: a binary one when the path ends in `.npz`, else JSONL.

    A JSONL is read from its companion `<path>.npz` when that holds the
    JSONL's SHA-256; otherwise every sign is parsed, repadded and validated
    in one pass, and every error names the line at fault: the first bad
    line in file order, and a line that fails to parse before any sign that
    fails `check_signs`.
    """
    if _is_npz(path):
        return _read_npz(path)
    # a companion that is missing, faulty or written with other JSONL bytes
    # leaves the last word to the decoder
    companion = _companion(path)
    if companion:
        with suppress(ParseError, InvariantViolation, OSError):
            return _read_npz(companion, jsonl=path)
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty corpus file", line=1)
        try:
            p, d = _parse_header(first)
        except (ParseError, InvariantViolation) as exc:
            raise type(exc)(str(exc), line=1) from None
        lines, lengths, glosses, signers, noises, frames = _decode(fh, p, d)
    try:
        features = np.zeros((len(lines), p, d))
        features[np.arange(p) < np.array(lengths)[:, None]] = frames
        # the stacked frames go before check_signs runs; the frozen padded
        # array becomes the corpus's own, without a copy
        del frames
        features.flags.writeable = False
        return Corpus.from_arrays(features, lengths, glosses, signers, noises)
    except InvariantViolation as exc:  # raised by check_signs, so exc.sign is set
        raise InvariantViolation(exc.check, line=lines[exc.sign]) from None
    except MemoryError:  # the header's P, not the data, sets the padded size
        raise InvariantViolation(f"header P={p} pads {len(lines)} signs of {d} features to "
                                 "more frames than fit in memory", line=1) from None


def synth_corpus(truth: ModelParams, m_signs, seed, *, n_frames=DEFAULT_FRAMES,
                 exact_end_token=True, gloss_prefix="synth"):
    """Ancestral sampling of a corpus from a known model.

    Returns (corpus, labels): the (M, P) int64 labels hold the hidden state
    chain of every sign, which keeps evolving under the transition matrix even
    after the end state is first entered. With exact_end_token, emitted
    frames are zeroed from the first entry into state 0 onward so zero rows
    form a contiguous suffix; otherwise every frame is a Gaussian draw.
    """
    m_signs, p = check_sizes(m_signs=m_signs, n_frames=n_frames)
    rng = np.random.default_rng(seed)
    labels = markov_chain_sample(rng, truth.pi, truth.trans, m_signs, p)
    feats = gaussian_frames(rng, truth.mu, truth.sigma, labels)
    if exact_end_token:
        ended = np.cumsum(labels == 0, axis=1) > 0
        feats[ended] = 0.0
        lengths = np.maximum(p - ended.sum(axis=1), 1)  # ended is a suffix of each sign
    else:
        lengths = np.full(m_signs, p)
    return sampled_corpus(feats, lengths, gloss_prefix), labels


def sampled_corpus(features, lengths, gloss_prefix) -> Corpus:
    """Sampled (M, P, D) features as a corpus: sign i has lengths[i] data
    rows, gloss `<gloss_prefix>-<i>` (i zero-padded to at least five digits),
    signer "sampler" and noise "none". `features` must be a new float64
    array that owns its data: it is frozen and becomes the corpus's own,
    without a copy."""
    m_signs = features.shape[0]
    features.flags.writeable = False
    width = max(5, len(str(m_signs - 1)))
    return Corpus.from_arrays(features, lengths,
                              [f"{gloss_prefix}-{i:0{width}d}" for i in range(m_signs)],
                              ["sampler"] * m_signs, ["none"] * m_signs)

"""Model and report persistence with one strict validator.

Everything is written through json.dumps with default float repr, so a rerun
of the same pipeline produces byte-identical artifacts. Outputs are checked
before they touch disk, models are saved and loaded through one strict parse,
and the JSON schemas in `schemas/` are documentation the library never reads.
Every file mh-phone writes, here or elsewhere, goes through `output_file`.
"""

import json
import math
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import fields

from .errors import InvariantViolation, ParseError
from .params import MODEL_KINDS, Hyperparams, json_numbers

MODEL_FORMAT = "mh-model"
MODEL_VERSION = 1


def _check_finite(value, kind, key=""):
    """Raise InvariantViolation naming the dotted key of a NaN or infinity."""
    if isinstance(value, (dict, list)):
        for name, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_finite(item, kind, f"{key}.{name}" if key else name)
    elif isinstance(value, float) and not math.isfinite(value):
        raise InvariantViolation(f"{kind} artifact: {key} has non-finite entries")


def validate_artifact(kind: str, obj) -> None:
    """Raise InvariantViolation unless obj may be written as an artifact of
    `kind`: every number finite, and a model passes `load_model`'s parse."""
    if kind not in ("model", "eval-report", "interpret-report"):
        raise InvariantViolation(f"unknown artifact kind '{kind}'")
    _check_finite(obj, kind)
    if kind == "model":
        _parse_model(obj)


def special_file(path) -> bool:
    """Whether something other than a regular file is at `path`: a pipe, a
    device, a directory. A path that names nothing, or that the OS rejects
    (a name too long, a NUL byte), is not special: this never raises."""
    return not os.path.isfile(path) and os.path.exists(path)


def _temp_name(target):
    """`<name>.<id>.tmp` beside `target`, with `<name>` its name cut by the
    suffix's length (to no less than that, and between UTF-8 characters), so
    it fits wherever the target's name fits. The id is the writing thread's,
    the pid in a main thread: names the cut makes alike never collide."""
    head, name = os.path.split(os.fsencode(target))
    suffix = b".%d.tmp" % threading.get_native_id()
    keep = max(len(name) - len(suffix), len(suffix))
    while 0 < keep < len(name) and 0x80 <= name[keep] < 0xC0:  # a continuation byte
        keep -= 1
    return os.fsdecode(os.path.join(head, name[:keep] + suffix))


@contextmanager
def output_file(path):
    """A binary handle on a temporary file (see `_temp_name`) beside the
    file at `path` (or beside the file a symlink there points to, keeping
    the link), renamed onto it when the block completes and removed when it
    raises: a failing or interrupted write leaves the old file or none,
    never a prefix. Nothing is synced, so a power loss is not covered. A
    `special_file` is written where it is."""
    path = os.fsdecode(path)
    if special_file(path):
        with open(path, "wb") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    temp = _temp_name(target)
    try:
        fh = open(temp, "wb")
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


def dump_json(path, obj) -> None:
    """Deterministic JSON writer; rejects NaN and infinity."""
    with output_file(path) as fh:
        fh.write((json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
            raise ParseError(f"malformed JSON: {getattr(exc, 'msg', exc)}",
                             line=getattr(exc, "lineno", None)) from None


def model_kind(model) -> str:
    for kind, cls in MODEL_KINDS.items():
        if type(model) is cls:
            return kind
    raise InvariantViolation(f"unknown model type {type(model).__name__}")


def _shape_header(model, kind) -> dict:
    """The N, D (and for gmm-lda T) header fields that the arrays imply."""
    n, d = model.mu.shape
    header = {"N": n, "D": d}
    if kind == "gmm-lda":
        header["T"] = model.n_topics
    return header


def save_model(path, model, hyper: Hyperparams, config=None) -> None:
    kind = model_kind(model)
    obj = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind,
           **_shape_header(model, kind), **model.to_dict(), "hyper": hyper.to_dict()}
    if config is not None:
        obj["config"] = config
    validate_artifact("model", obj)
    dump_json(path, obj)


def _parse_model(obj):
    """The one check of a model object (no `kind` means dbn): (model, hyper, config)."""
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ParseError(f"not an {MODEL_FORMAT} file", line=1)
    version, kind, config = obj.get("version"), obj.get("kind", "dbn"), obj.get("config", {})
    if not (json_numbers([version]) and version == MODEL_VERSION):
        raise InvariantViolation(f"model artifact version must be {MODEL_VERSION}")
    if not (isinstance(kind, str) and kind in MODEL_KINDS):
        raise InvariantViolation(f"model artifact kind must be one of {list(MODEL_KINDS)}")
    if not isinstance(config, dict):
        raise InvariantViolation("model artifact config must be an object")
    headers = ("N", "D", "T") if kind == "gmm-lda" else ("N", "D")
    keys = ("format", "version", *headers, *(f.name for f in fields(MODEL_KINDS[kind])), "hyper")
    for key in (*keys, *obj):
        if key not in obj or key not in keys and key not in ("kind", "config"):
            problem = "has unknown" if key in obj else "is missing"
            raise InvariantViolation(f"model artifact {problem} key '{key}'")
    names = [f.name for f in fields(Hyperparams)]
    if not isinstance(obj["hyper"], dict) or set(obj["hyper"]) != set(names):
        raise InvariantViolation(f"model artifact hyper must hold exactly the keys {names}")
    hyper, model = Hyperparams.from_dict(obj["hyper"]), MODEL_KINDS[kind].from_dict(obj)
    for key, value in _shape_header(model, kind).items():  # integral, never a bool
        if not (json_numbers([obj[key]]) and obj[key] == value):
            raise InvariantViolation(f"model header {key} is {obj[key]!r}, "
                                     f"but the arrays give {value}")
    return model, hyper, config


def load_model(path):
    """Read a model file. Returns (model, hyper, config)."""
    return _parse_model(load_json(path))

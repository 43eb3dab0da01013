"""Model and report persistence with schema validation.

Everything is written through json.dumps with default float repr, so a rerun
of the same pipeline produces byte-identical artifacts. Outputs are checked
against the shipped JSON schemas before they touch disk; loaded files are
checked before they are trusted.
"""

import json
from functools import lru_cache
from importlib import resources

import jsonschema

from .baselines import GmmLdaParams, GmmParams
from .errors import InvariantViolation, ParseError
from .params import Hyperparams, ModelParams

MODEL_FORMAT = "mh-model"
MODEL_VERSION = 1

# The one place model kinds are named: the `kind` field of a model file and
# the parameter class it loads into.
_MODEL_CLASSES = {"dbn": ModelParams, "gmm": GmmParams, "gmm-lda": GmmLdaParams}
_KIND_OF_CLASS = {cls: kind for kind, cls in _MODEL_CLASSES.items()}

_SCHEMA_KINDS = ("model", "eval-report", "interpret-report")


@lru_cache(maxsize=None)
def load_schema(kind: str) -> dict:
    if kind not in _SCHEMA_KINDS:
        raise InvariantViolation(f"no schema for artifact kind '{kind}'")
    text = resources.files("mh_phone.schemas").joinpath(f"{kind}.schema.json").read_text("utf-8")
    return json.loads(text)


def validate_artifact(kind: str, obj) -> None:
    """Raise InvariantViolation when obj does not match the shipped schema."""
    try:
        jsonschema.validate(obj, load_schema(kind))
    except jsonschema.ValidationError as exc:
        raise InvariantViolation(f"{kind} artifact failed validation: {exc.message}") from None


def dump_json(path, obj) -> None:
    """Deterministic JSON writer; rejects NaN and infinity."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno) from None


def model_kind(model) -> str:
    try:
        return _KIND_OF_CLASS[type(model)]
    except KeyError:
        raise InvariantViolation(f"unknown model type {type(model).__name__}") from None


def model_to_dict(model, hyper: Hyperparams, config=None) -> dict:
    kind = model_kind(model)
    out = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind}
    out["N"], out["D"] = model.mu.shape
    if kind == "gmm-lda":
        out["T"] = model.n_topics
    out.update(model.to_dict())
    out["hyper"] = hyper.to_dict()
    if config is not None:
        out["config"] = config
    return out


def save_model(path, model, hyper: Hyperparams, config=None) -> None:
    obj = model_to_dict(model, hyper, config)
    validate_artifact("model", obj)
    dump_json(path, obj)


def load_model(path):
    """Read a model file. Returns (model, hyper, config)."""
    obj = load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ParseError(f"not an {MODEL_FORMAT} file", line=1)
    if "kind" not in obj:
        obj = dict(obj, kind="dbn")
    validate_artifact("model", obj)
    hyper = Hyperparams.from_dict(obj["hyper"])
    model = _MODEL_CLASSES[obj["kind"]].from_dict(obj)
    return model, hyper, obj.get("config", {})

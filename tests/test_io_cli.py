"""Artifact persistence and the command line pipeline."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from functools import partial
from itertools import islice
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest

from mh_phone.baselines import GmmLdaParams, GmmParams
from mh_phone.cli import build_parser, main, usable_cores
from mh_phone.corpus import load_corpus, save_corpus, synth_corpus
from mh_phone.errors import InvariantViolation, ParseError
from mh_phone.io import (dump_json, load_json, load_model, model_kind, output_file,
                         save_model, special_file, validate_artifact)
from mh_phone.params import MODEL_KINDS, Hyperparams, ModelParams, make_truth_params

from helpers import file_bytes, load_schema, random_params


# ---------------------------------------------------------------- io


def _gmm():
    return GmmParams(weights=[0.25, 0.75], mu=[[0.0, 1.0], [2.0, 3.0]],
                     sigma=[0.5, 0.5])


def _lda():
    return GmmLdaParams(topic_word=[[0.1, 0.9], [0.6, 0.4]],
                        topic_freq=[0.3, 0.7], doc_topic_prior=1.0,
                        word_prior=2.0, mu=[[0.0], [1.0]], sigma=[0.25])


def test_model_round_trip_all_kinds(tmp_path):
    hyper = Hyperparams(alpha=1.5)
    config = {"command": "train", "seed": 3}
    for fitted in (random_params(np.random.default_rng(80), 3, 4), _gmm(), _lda()):
        path = tmp_path / f"{model_kind(fitted)}.json"
        save_model(path, fitted, hyper, config=config)
        back, back_hyper, back_config = load_model(path)
        assert type(back) is type(fitted)
        np.testing.assert_array_equal(back.mu, fitted.mu)
        np.testing.assert_array_equal(back.sigma, fitted.sigma)
        assert back_hyper == hyper
        assert back_config == config
    dbn_back, _, _ = load_model(tmp_path / "dbn.json")
    orig = random_params(np.random.default_rng(80), 3, 4)
    np.testing.assert_array_equal(dbn_back.pi, orig.pi)
    np.testing.assert_array_equal(dbn_back.trans, orig.trans)


def test_save_model_names_a_model_of_no_known_kind_and_writes_nothing(tmp_path):
    class Subclass(GmmParams):  # a kind is a parameter class itself, not a subclass
        pass

    for model in (Hyperparams(), Subclass(**_gmm().to_dict())):
        with pytest.raises(InvariantViolation,
                           match=f"^unknown model type {type(model).__name__}$"):
            save_model(tmp_path / "m.json", model, Hyperparams())
    assert not os.listdir(tmp_path)


def test_load_model_rejects_foreign_and_malformed_files(tmp_path):
    foreign = tmp_path / "foreign.json"
    foreign.write_text('{"format": "other", "version": 1}\n')
    with pytest.raises(ParseError):
        load_model(foreign)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n")
    with pytest.raises(ParseError) as err:
        load_model(bad)
    assert err.value.line == 1


def test_load_model_missing_kind_defaults_to_sequence_model(tmp_path):
    params = random_params(np.random.default_rng(81), 2, 3)
    path = tmp_path / "m.json"
    save_model(path, params, Hyperparams())
    obj = load_json(path)
    del obj["kind"]
    dump_json(path, obj)
    back, _, config = load_model(path)
    np.testing.assert_array_equal(back.pi, params.pi)
    assert config == {}


def test_validate_artifact_catches_missing_and_extra_fields(tmp_path):
    params = random_params(np.random.default_rng(82), 2, 2)
    path = tmp_path / "m.json"
    save_model(path, params, Hyperparams())
    obj = load_json(path)
    broken = {k: v for k, v in obj.items() if k != "pi"}
    with pytest.raises(InvariantViolation, match="model artifact"):
        validate_artifact("model", broken)
    with pytest.raises(InvariantViolation):
        validate_artifact("model", dict(obj, surprise=1))
    with pytest.raises(InvariantViolation):
        validate_artifact("no-such-kind", obj)


@pytest.mark.parametrize("fitted, key, value", [
    (_gmm(), "N", 99), (_gmm(), "D", 7), (_lda(), "T", 5), (_lda(), "N", 3),
], ids=["gmm-N", "gmm-D", "gmm-lda-T", "gmm-lda-N"])
def test_load_model_checks_the_header_against_the_arrays(tmp_path, fitted, key, value):
    path = tmp_path / "m.json"
    save_model(path, fitted, Hyperparams())
    dump_json(path, dict(load_json(path), **{key: value}))
    with pytest.raises(InvariantViolation, match=f"^model header {key} is {value}, "):
        load_model(path)


def test_model_schema_names_every_kind_and_requires_its_fields():
    schema = load_schema("model")
    assert schema["properties"]["kind"]["enum"] == list(MODEL_KINDS)
    required = {rule["if"]["properties"]["kind"]["const"]: rule["then"]["required"]
                for rule in schema["allOf"]}
    for kind, cls in MODEL_KINDS.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert names <= set(schema["required"]) | set(required[kind]), kind


def test_dump_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        dump_json(tmp_path / "x.json", {"v": math.nan})
    with pytest.raises(ValueError):
        dump_json(tmp_path / "x.json", {"v": math.inf})


def test_an_interrupted_save_model_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.json"
    save_model(path, random_params(np.random.default_rng(80), 3, 4), Hyperparams())
    before = file_bytes(tmp_path)
    iterencode = json.JSONEncoder.iterencode

    def interrupted(self, obj, *args, **kwargs):  # a Ctrl-C after 20 pieces of JSON
        yield from islice(iterencode(self, obj, *args, **kwargs), 20)
        raise KeyboardInterrupt
    with mock.patch.object(json.JSONEncoder, "iterencode", interrupted), \
            pytest.raises(KeyboardInterrupt):
        save_model(path, random_params(np.random.default_rng(81), 3, 4), Hyperparams())
    assert file_bytes(tmp_path) == before  # no temporary file either


def test_special_file_answers_for_any_path(tmp_path):
    (tmp_path / "file").write_text("x")
    assert special_file(tmp_path)
    assert not special_file(tmp_path / "file")
    assert not special_file(tmp_path / "missing")
    # paths the OS rejects: a name too long, a file used as a directory, a NUL byte
    for rejected in ("n" * 4096, "file/below", "nul\0byte"):
        assert not special_file(tmp_path / rejected)


def test_two_threads_writing_alike_names_at_once_each_get_their_own_bytes(tmp_path):
    # the temporary name cuts the last bytes of a name, where these two differ
    first, second = (tmp_path / f"train_seed_{seed}.jsonl" for seed in (1, 2))
    opened, written = threading.Event(), threading.Event()

    def write_first():
        with output_file(first) as fh:
            fh.write(b"first\n")
            opened.set()
            written.wait(timeout=30)
    writer = threading.Thread(target=write_first)
    writer.start()
    assert opened.wait(timeout=30)
    with output_file(second) as fh:
        fh.write(b"second\n")
    written.set()
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert first.read_bytes() == b"first\n"
    assert second.read_bytes() == b"second\n"
    assert sorted(os.listdir(tmp_path)) == [first.name, second.name]


def test_json_preserves_float_precision(tmp_path):
    path = tmp_path / "p.json"
    value = 1.0 / 3.0
    dump_json(path, {"v": value})
    assert load_json(path)["v"] == value


# ---------------------------------------------------------------- cli


def _run(*argv):
    return main(list(argv))


@pytest.fixture()
def tiny_pipeline(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    rc = _run("synth", "--n-states", "3", "--m-signs", "40", "--p-frames", "10",
              "--out", str(corpus), "--seed", "7",
              "--truth-out", str(tmp_path / "truth.json"))
    assert rc == 0
    return tmp_path, corpus


def test_cli_full_pipeline(tiny_pipeline, capsys):
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "model.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--n-states", "3", "--max-iters", "30", "--seed", "7") == 0
    fitted, hyper, config = load_model(model_path)
    assert config["command"] == "train"
    assert hyper == Hyperparams()

    gen_path = tmp_path / "gen.jsonl"
    assert _run("generate", "--model", str(model_path), "--n", "15",
                "--p-frames", "10", "--out", str(gen_path), "--seed", "8") == 0
    gen = load_corpus(gen_path)
    assert gen.dims == (15, 10, 14)

    report_path = tmp_path / "report.json"
    assert _run("evaluate", "--real", str(corpus), "--model", str(model_path),
                "--report", str(report_path), "--seeds", "2", "--epochs", "4",
                "--hidden", "4", "--seed", "9") == 0
    out = capsys.readouterr().out
    assert "test bce" in out and "over 2 seeds" in out
    report = load_json(report_path)
    validate_artifact("eval-report", report)
    assert report["format"] == "mh-eval-report"
    assert len(report["per_seed"]) == 2

    interp_path = tmp_path / "interp.json"
    assert _run("interpret", "--model", str(model_path), "--out", str(interp_path),
                "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "start ranking (by pi):" in out
    interp = load_json(interp_path)
    validate_artifact("interpret-report", interp)
    assert len(interp["hold_lengths_frames"]) == 3

    csv_path = tmp_path / "samples.csv"
    assert _run("generate", "--model", str(model_path), "--n", "6",
                "--p-frames", "10", "--out", str(csv_path), "--seed", "2") == 0
    rows = np.loadtxt(csv_path, delimiter=",")
    assert rows.shape == (6, 10 * 14)


def test_cli_train_warns_on_non_finite_objective(tiny_pipeline, caplog):
    # alpha < 1 drives the log joint to +inf once a transition row has zeros
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "model.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--n-states", "3", "--alpha", "0.5", "--seed", "7") == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "non-finite objective (inf)" in warnings[0]
    load_model(model_path)


def test_cli_train_rejects_zero_max_iters(tmp_path, capsys):
    # rejected while parsing arguments, so a corpus that does not exist is never opened
    model_path = tmp_path / "model.json"
    with pytest.raises(SystemExit) as stop:
        _run("train", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(model_path),
             "--max-iters", "0")
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert "mh-phone train: error: argument --max-iters: must be at least 1, got 0" in err
    assert not model_path.exists()


def test_cli_trains_baseline_kinds(tiny_pipeline):
    tmp_path, corpus = tiny_pipeline
    gmm_path = tmp_path / "gmm.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(gmm_path),
                "--model", "gmm", "--n-states", "4", "--max-iters", "15") == 0
    fitted, _, _ = load_model(gmm_path)
    assert isinstance(fitted, GmmParams)

    lda_path = tmp_path / "lda.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(lda_path),
                "--model", "gmm-lda", "--n-states", "4", "--topics", "3",
                "--max-iters", "15") == 0
    fitted, _, _ = load_model(lda_path)
    assert isinstance(fitted, GmmLdaParams)
    assert fitted.n_topics == 3

    # generate must dispatch on the stored kind
    out = tmp_path / "from-gmm.jsonl"
    assert _run("generate", "--model", str(gmm_path), "--n", "5",
                "--p-frames", "6", "--out", str(out)) == 0
    assert load_corpus(out).dims == (5, 6, 14)


def test_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    # Identical flags must give identical bytes, whatever --threads is.
    outputs = []
    for run, threads in (("a", "1"), ("b", "3")):
        d = tmp_path / run
        d.mkdir()
        monkeypatch.chdir(d)
        assert _run("synth", "--n-states", "3", "--m-signs", "25",
                    "--p-frames", "8", "--out", "corpus.jsonl", "--seed", "11") == 0
        assert _run("train", "--corpus", "corpus.jsonl", "--out", "model.json",
                    "--n-states", "3", "--max-iters", "20", "--seed", "11",
                    "--threads", threads) == 0
        assert _run("generate", "--model", "model.json", "--n", "10",
                    "--p-frames", "8", "--out", "gen.jsonl", "--seed", "11") == 0
        assert _run("evaluate", "--real", "corpus.jsonl", "--model", "model.json",
                    "--report", "report.json", "--seeds", "2", "--epochs", "3",
                    "--hidden", "4", "--seed", "11") == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("corpus.jsonl", "model.json",
                                     "gen.jsonl", "report.json")})
    assert outputs[0] == outputs[1]


def test_cli_a_directory_at_the_companion_path_does_not_stop_a_save(tmp_path, monkeypatch):
    texts = []
    for run in ("free", "blocked"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        if run == "blocked":
            os.mkdir("c.jsonl.npz")
        assert _run("synth", "--m-signs", "20", "--p-frames", "6", "--seed", "2",
                    "--out", "c.jsonl") == 0
        texts.append((tmp_path / run / "c.jsonl").read_bytes())
    assert texts[1] == texts[0]
    assert sorted(os.listdir(tmp_path / "blocked")) == ["c.jsonl", "c.jsonl.npz"]  # no temp file
    assert os.path.isdir(tmp_path / "blocked" / "c.jsonl.npz")
    assert not os.listdir(tmp_path / "blocked" / "c.jsonl.npz")


def test_cli_out_through_a_symlink_replaces_the_file_and_keeps_the_link(tmp_path, monkeypatch):
    texts = []
    for run in ("plain", "linked"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        if run == "linked":
            os.mkdir("data")
            Path("data/c.jsonl").write_text("old\n")
            os.symlink("data/c.jsonl", "c.jsonl")
        assert _run("synth", "--m-signs", "20", "--p-frames", "6", "--seed", "2",
                    "--out", "c.jsonl") == 0
        texts.append(Path("c.jsonl").read_bytes())
    assert texts[1] == texts[0]
    assert os.readlink("c.jsonl") == "data/c.jsonl"
    assert sorted(os.listdir()) == ["c.jsonl", "c.jsonl.npz", "data"]
    assert os.listdir("data") == ["c.jsonl"]  # no temporary file


@pytest.mark.parametrize("argv", [
    ("synth", "--m-signs", "20", "--out", "out.jsonl"),
    ("synth", "--m-signs", "20", "--out", "out.npz"),
    ("train", "--corpus", "corpus.jsonl", "--max-iters", "2", "--out", "out.json"),
    ("generate", "--model", "truth.json", "--n", "3", "--out", "out.csv"),
], ids=["jsonl", "npz", "model", "csv"])
def test_cli_a_directory_at_the_output_path_exits_two(tiny_pipeline, monkeypatch, capsys, argv):
    monkeypatch.chdir(tiny_pipeline[0])
    os.mkdir(argv[-1])
    before = sorted(os.listdir())
    assert _run(*argv) == 2
    assert "mh-phone: error:" in capsys.readouterr().err
    assert sorted(os.listdir()) == before
    assert not os.listdir(argv[-1])


@pytest.mark.parametrize("argv, read", [
    (("train", "--corpus", "corpus.jsonl", "--max-iters", "2", "--out", ".json"), load_model),
    (("generate", "--model", "truth.json", "--n", "3", "--out", ".csv"),
     partial(np.loadtxt, delimiter=",")),
    (("generate", "--model", "truth.json", "--n", "3", "--out", ".npz"), load_corpus),
    (("evaluate", "--real", "corpus.jsonl", "--model", "truth.json", "--seeds", "1",
      "--epochs", "2", "--hidden", "2", "--report", ".json"), load_json),
], ids=["model", "csv", "npz", "report"])
def test_cli_writes_an_output_with_a_250_byte_name(tiny_pipeline, monkeypatch, argv, read):
    monkeypatch.chdir(tiny_pipeline[0])
    name = "o" * (250 - len(argv[-1])) + argv[-1]
    before = set(os.listdir())
    assert _run(*argv[:-1], name) == 0
    assert set(os.listdir()) == before | {name}  # no temporary file left
    read(name)


def test_cli_fits_the_same_model_from_a_jsonl_its_companion_or_an_npz(tmp_path, capsys):
    synth = ("synth", "--n-states", "3", "--m-signs", "30", "--p-frames", "8", "--seed", "5")
    assert _run(*synth, "--out", str(tmp_path / "c.jsonl")) == 0
    assert _run(*synth, "--out", str(tmp_path / "c.npz")) == 0
    (tmp_path / "plain.jsonl").write_bytes((tmp_path / "c.jsonl").read_bytes())
    params = []
    for corpus in ("c.jsonl", "plain.jsonl", "c.npz"):  # the companion, the decoder, npz
        out = tmp_path / f"{corpus}.model.json"
        assert _run("train", "--corpus", str(tmp_path / corpus), "--n-states", "3",
                    "--max-iters", "5", "--seed", "5", "--out", str(out)) == 0
        obj = load_json(out)
        del obj["config"]  # it records the corpus path
        params.append(obj)
    assert params[1] == params[0] and params[2] == params[0]
    (tmp_path / "bad.npz").write_bytes((tmp_path / "c.npz").read_bytes()[:-30])
    capsys.readouterr()
    assert _run("train", "--corpus", str(tmp_path / "bad.npz"),
                "--out", str(tmp_path / "m.json")) == 1
    assert capsys.readouterr().err.startswith(
        "mh-phone: error: not a readable binary corpus: ")


def test_cli_rejects_a_model_file_with_non_finite_weights(tmp_path, capsys):
    model_path = tmp_path / "gmm.json"
    save_model(model_path, _gmm(), Hyperparams())
    model_path.write_text(json.dumps(dict(load_json(model_path), weights=[math.nan] * 2)))
    out = tmp_path / "gen.jsonl"
    assert _run("generate", "--model", str(model_path), "--out", str(out)) == 1
    assert "mh-phone: error: weights has non-finite entries" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_model_file_with_a_wrong_header(tmp_path, capsys):
    model_path = tmp_path / "gmm.json"
    save_model(model_path, _gmm(), Hyperparams())
    dump_json(model_path, dict(load_json(model_path), N=99, D=7))
    assert _run("generate", "--model", str(model_path), "--out",
                str(tmp_path / "gen.jsonl")) == 1
    assert "mh-phone: error: model header N is 99, but the arrays give 2" \
        in capsys.readouterr().err


@pytest.mark.parametrize("kind, flag, value, field", [
    ("gmm", "--mu-mu", "nan", "mu_mu"),
    ("dbn", "--sigma-mu", "inf", "sigma_mu"),
])
def test_cli_train_rejects_non_finite_hyperparameters(tiny_pipeline, capsys,
                                                      kind, flag, value, field):
    # the parser turns the value away before Hyperparams' own check would see it
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "model.json"
    with pytest.raises(SystemExit) as stop:
        _run("train", "--corpus", str(corpus), "--out", str(model_path),
             "--model", kind, flag, value)
    assert stop.value.code == 1
    assert f"argument {flag}: must be finite, got {value}" in capsys.readouterr().err
    assert not model_path.exists()
    with pytest.raises(InvariantViolation, match=f"^{field} has non-finite entries"):
        Hyperparams(**{field: float(value)})


def test_cli_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        _run("train", "--out", "x.json")
    assert err.value.code == 1
    assert "--corpus" in capsys.readouterr().err


@pytest.mark.parametrize("threads, message", [
    ("0", "must be at least 1, got 0"), ("-3", "must be at least 1, got -3"),
    ("two", "must be an integer, got 'two'")])
def test_cli_train_rejects_threads_below_one(tiny_pipeline, capsys, threads, message):
    tmp_path, corpus = tiny_pipeline
    with pytest.raises(SystemExit) as err:
        _run("train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
             "--threads", threads)
    assert err.value.code == 1
    assert f"argument --threads: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_threads_default_to_the_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert usable_cores() == 3
    assert build_parser().parse_args(["train", "--corpus", "c", "--out", "m"]).threads == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert usable_cores() == 6


@pytest.mark.parametrize("command, message", [
    (("evaluate", "--model", "{dir}/truth.json", "--real"),
     "generator evaluation needs at least 10 real signs"),
    (("train", "--n-states", "9", "--corpus"), "4 frames cannot seed 8 prototypes"),
], ids=["evaluate", "train"])
def test_cli_input_too_small_for_the_command_is_a_validation_error(tmp_path, capsys,
                                                                   command, message):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out.json"
    assert _run("synth", "--m-signs", "2", "--p-frames", "2", "--out", str(corpus),
                "--truth-out", str(tmp_path / "truth.json")) == 0
    capsys.readouterr()
    flag = "--report" if command[0] == "evaluate" else "--out"
    argv = [arg.format(dir=tmp_path) for arg in command]
    assert _run(*argv, str(corpus), flag, str(out)) == 1
    assert capsys.readouterr().err == f"mh-phone: error: {message}\n"
    assert not out.exists()


def test_cli_synth_rejects_a_separation_beyond_float_range(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        assert _run("synth", "--m-signs", "5", "--separation", "1e200", "--out", str(out)) == 1
    assert "separation 1e+200 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        _run("frobnicate")
    assert err.value.code == 1


def test_cli_missing_file_is_runtime_error(tmp_path, capsys):
    rc = _run("train", "--corpus", str(tmp_path / "nope.jsonl"),
              "--out", str(tmp_path / "m.json"))
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_bad_corpus_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a corpus\n")
    rc = _run("train", "--corpus", str(bad), "--out", str(tmp_path / "m.json"))
    assert rc == 1
    assert "mh-phone: error:" in capsys.readouterr().err


def test_cli_interpret_claims_no_padded_length(tiny_pipeline, capsys):
    # the corpus pads to P=10; a model file does not record P, so neither a
    # horizon of 10 nor the default horizon may be compared with a padding
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "m.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--n-states", "3", "--max-iters", "5") == 0
    capsys.readouterr()
    for horizon in ("10", "20"):
        assert _run("interpret", "--model", str(model_path), "--horizon", horizon) == 0
        out = capsys.readouterr().out
        assert "start ranking (by pi):" in out
        assert "padded" not in out and "horizon of" not in out


def test_cli_interpret_rejects_frame_mixture_models(tiny_pipeline, capsys):
    tmp_path, corpus = tiny_pipeline
    gmm_path = tmp_path / "g.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(gmm_path),
                "--model", "gmm", "--n-states", "3", "--max-iters", "5") == 0
    rc = _run("interpret", "--model", str(gmm_path))
    assert rc == 1
    assert "dbn" in capsys.readouterr().err


def test_cli_bad_log_level(tiny_pipeline):
    tmp_path, corpus = tiny_pipeline
    rc = _run("train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
              "--log-level", "chatty")
    assert rc == 1


def test_cli_log_level_from_environment(tiny_pipeline):
    # a fresh interpreter: in this one the test runner's log handlers make
    # logging.basicConfig a no-op
    tmp_path, corpus = tiny_pipeline
    train = ("-m", "mh_phone.cli", "train", "--corpus", str(corpus),
             "--out", str(tmp_path / "m.json"), "--max-iters", "5")
    told = _fresh_python(*train, MH_PHONE_LOG="info")
    assert told.returncode == 0
    assert "INFO mh_phone: dbn fit:" in told.stderr
    flagged = _fresh_python(*train, "--log-level", "warning", MH_PHONE_LOG="info")
    assert flagged.returncode == 0
    assert "INFO" not in flagged.stderr
    unknown = _fresh_python(*train, MH_PHONE_LOG="chatty")
    assert unknown.returncode == 1
    assert "unknown log level 'chatty'" in unknown.stderr


def test_cli_excludes_broken_signs_by_default(tmp_path):
    # Hand-build a corpus where one sign is marked broken and sits far away;
    # training with and without it must differ, and the default must match
    # training on the clean subset.
    from mh_phone.corpus import Corpus, save_corpus

    rng = np.random.default_rng(83)
    features = np.concatenate([rng.normal(0, 0.3, (8, 6, 2)) + 1.0, np.full((1, 6, 2), 40.0)])
    glosses = [f"c{i}" for i in range(8)] + ["b0"]
    mixed = Corpus.from_arrays(features, [6] * 9, glosses, [""] * 9, ["low"] * 8 + ["broken"])
    path = tmp_path / "mix.jsonl"
    save_corpus(mixed, path)

    out_default = tmp_path / "default.json"
    out_subset = tmp_path / "subset.json"
    out_all = tmp_path / "all.json"
    assert _run("train", "--corpus", str(path), "--out", str(out_default),
                "--n-states", "2", "--max-iters", "10", "--seed", "4") == 0
    clean_path = tmp_path / "clean.jsonl"
    save_corpus(mixed.without_noise("broken"), clean_path)
    assert _run("train", "--corpus", str(clean_path), "--out", str(out_subset),
                "--n-states", "2", "--max-iters", "10", "--seed", "4") == 0
    assert _run("train", "--corpus", str(path), "--out", str(out_all),
                "--n-states", "2", "--max-iters", "10", "--seed", "4",
                "--include-broken") == 0

    default_model, _, _ = load_model(out_default)
    subset_model, _, _ = load_model(out_subset)
    all_model, _, _ = load_model(out_all)
    np.testing.assert_array_equal(default_model.mu, subset_model.mu)
    assert not np.array_equal(all_model.mu, default_model.mu)


def test_cli_noisy_end_token_keeps_full_lengths(tmp_path):
    out = tmp_path / "noisy.jsonl"
    assert _run("synth", "--n-states", "3", "--m-signs", "30", "--p-frames", "9",
                "--out", str(out), "--noisy-end-token", "--seed", "5") == 0
    corp = load_corpus(out)
    assert np.all(corp.true_lengths == 9)


def test_cli_truth_out_is_loadable_model(tiny_pipeline):
    tmp_path, _ = tiny_pipeline
    truth, hyper, config = load_model(tmp_path / "truth.json")
    assert truth.n_states == 3
    assert truth.trans[0, 0] == 1.0
    assert config["command"] == "synth"


def test_cli_generate_csv_bytes_are_deterministic_and_pinned(tiny_pipeline):
    tmp_path, _ = tiny_pipeline
    digests = set()
    for name in ("a.csv", "b.CSV"):
        assert _run("generate", "--model", str(tmp_path / "truth.json"), "--n", "2",
                    "--p-frames", "3", "--out", str(tmp_path / name), "--seed", "3") == 0
        digests.add(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
    assert digests == {"b9d3c2eefca0645d326fb07bf6fce18b8253dc470152a275302606fdb5e38e3b"}


def test_cli_an_interrupted_csv_generate_leaves_the_old_file(tiny_pipeline, monkeypatch):
    tmp_path, _ = tiny_pipeline
    argv = ("generate", "--model", str(tmp_path / "truth.json"), "--n", "5",
            "--p-frames", "10", "--out", str(tmp_path / "g.csv"))
    assert _run(*argv, "--seed", "1") == 0
    before = file_bytes(tmp_path)
    savetxt = np.savetxt

    def interrupted(fname, rows, **kwargs):  # a Ctrl-C after two rows
        savetxt(fname, rows[:2], **kwargs)
        raise KeyboardInterrupt
    monkeypatch.setattr(np, "savetxt", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run(*argv, "--seed", "2")
    assert file_bytes(tmp_path) == before  # no temporary file either


@pytest.mark.parametrize("kind, noisy", [("dbn", False), ("dbn", True), ("gmm", False),
                                         ("gmm-lda", False)],
                         ids=["dbn", "dbn-noisy", "gmm", "gmm-lda"])
def test_cli_generate_csv_rows_are_the_padded_features_of_the_corpus(tiny_pipeline,
                                                                      kind, noisy):
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / f"{kind}.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path), "--model", kind,
                "--n-states", "3", "--topics", "2", "--max-iters", "3") == 0
    flags = ["--model", str(model_path), "--n", "7", "--p-frames", "10", "--seed", "4"]
    flags += ["--noisy-end-token"] * noisy
    assert _run("generate", *flags, "--out", str(tmp_path / "g.jsonl")) == 0
    assert _run("generate", *flags, "--out", str(tmp_path / "g.csv")) == 0
    rows = np.loadtxt(tmp_path / "g.csv", delimiter=",")
    np.testing.assert_array_equal(rows, load_corpus(tmp_path / "g.jsonl").features.reshape(7, -1))


def test_cli_evaluate_rejects_feature_mismatch(tiny_pipeline, capsys):
    tmp_path, corpus = tiny_pipeline
    slim = random_params(np.random.default_rng(84), 3, 4)
    slim_path = tmp_path / "slim.json"
    save_model(slim_path, slim, Hyperparams())
    rc = _run("evaluate", "--real", str(corpus), "--model", str(slim_path),
              "--report", str(tmp_path / "r.json"), "--seeds", "1",
              "--epochs", "2")
    assert rc == 1
    assert "features" in capsys.readouterr().err


# ------------------------------------------------- one validator, one contract


_MODELS = {"dbn": lambda: random_params(np.random.default_rng(86), 3, 2),
           "gmm": _gmm, "gmm-lda": _lda}


def _drop(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _put(key, value):
    return lambda obj: dict(obj, **{key: value})


def _hyper(edit):
    return lambda obj: dict(obj, hyper=edit(obj["hyper"]))


# Each edit makes a model file that the shipped schema rejects; the code must
# reject it too.
_SCHEMA_REJECTS = {
    "dbn-missing-pi": ("dbn", _drop("pi")),
    "dbn-missing-trans": ("dbn", _drop("trans")),
    "gmm-missing-weights": ("gmm", _drop("weights")),
    "gmm-lda-missing-T": ("gmm-lda", _drop("T")),
    "gmm-lda-missing-topic-freq": ("gmm-lda", _drop("topic_freq")),
    "missing-hyper": ("gmm", _drop("hyper")),
    "unknown-key": ("dbn", _put("surprise", 1)),
    "unknown-hyper-key": ("gmm", _hyper(_put("beta", 1.0))),
    "missing-hyper-key": ("dbn", _hyper(_drop("alpha"))),
    "alpha-zero": ("dbn", _hyper(_put("alpha", 0))),
    "alpha-bool": ("gmm", _hyper(_put("alpha", True))),
    "sigma-string": ("gmm", lambda obj: dict(obj, sigma=[str(v) for v in obj["sigma"]])),
    "version-2": ("dbn", _put("version", 2)),
    "version-bool": ("gmm", _put("version", True)),
    "kind-hmm": ("dbn", _put("kind", "hmm")),
    "N-zero": ("gmm", _put("N", 0)),
    "N-bool": ("gmm", _put("N", True)),
    "D-string": ("dbn", _put("D", "2")),
    "config-list": ("dbn", _put("config", [])),
    "pi-empty": ("dbn", _put("pi", [])),
    "pi-nested": ("dbn", lambda obj: dict(obj, pi=[[v] for v in obj["pi"]])),
    "doc-topic-prior-zero": ("gmm-lda", _put("doc_topic_prior", 0)),
    "dbn-stray-T": ("dbn", _put("T", 3)),
    "gmm-stray-T": ("gmm", _put("T", 2)),
    "dbn-stray-weights": ("dbn", _put("weights", [1.0])),
}


@pytest.mark.parametrize("kind, edit", _SCHEMA_REJECTS.values(), ids=_SCHEMA_REJECTS)
def test_cli_rejects_every_model_file_the_schema_rejects(tmp_path, capsys, kind, edit):
    path = tmp_path / "m.json"
    save_model(path, _MODELS[kind](), Hyperparams())
    obj = edit(load_json(path))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(obj, load_schema("model"))
    dump_json(path, obj)
    out = tmp_path / "gen.jsonl"
    assert _run("generate", "--model", str(path), "--out", str(out)) == 1
    assert "mh-phone: error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key, message", [
    ("gmm", "mu", "mu must be a rectangular array of numbers"),
    ("dbn", "trans", "trans must be a rectangular array of numbers"),
    ("gmm-lda", "topic_word", "topic_word must be a rectangular array of numbers"),
])
def test_cli_rejects_a_model_file_with_a_ragged_matrix(tmp_path, capsys, kind, key, message):
    path = tmp_path / "m.json"
    save_model(path, _MODELS[kind](), Hyperparams())
    obj = load_json(path)
    obj[key][-1].append(0.0)
    dump_json(path, obj)
    out = tmp_path / "gen.jsonl"
    assert _run("generate", "--model", str(path), "--out", str(out)) == 1
    assert f"mh-phone: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_model_schema_allows_each_kind_exactly_the_keys_of_a_written_file(tmp_path):
    rules = {rule["if"]["properties"]["kind"]["const"]: rule["then"]
             for rule in load_schema("model")["allOf"]}
    for kind, make in _MODELS.items():
        save_model(tmp_path / "m.json", make(), Hyperparams(), config={})
        assert set(rules[kind]["propertyNames"]["enum"]) == set(load_json(tmp_path / "m.json"))


def test_emitted_artifacts_match_the_shipped_schemas(tiny_pipeline):
    tmp_path, corpus = tiny_pipeline
    artifacts = {tmp_path / "truth.json": "model"}
    for kind in MODEL_KINDS:
        path = tmp_path / f"{kind}.json"
        assert _run("train", "--corpus", str(corpus), "--out", str(path), "--model", kind,
                    "--n-states", "3", "--topics", "2", "--max-iters", "3") == 0
        artifacts[path] = "model"
    report = tmp_path / "report.json"
    assert _run("evaluate", "--real", str(corpus), "--model", str(tmp_path / "gmm.json"),
                "--report", str(report), "--seeds", "2", "--epochs", "2",
                "--hidden", "3") == 0
    artifacts[report] = "eval-report"
    absorbing = ModelParams(pi=[0.0, 0.5, 0.5], trans=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                        [0.2, 0.0, 0.8]],
                            mu=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], sigma=[0.5, 0.5])
    save_model(tmp_path / "absorbing.json", absorbing, Hyperparams())
    interp = tmp_path / "interp.json"
    assert _run("interpret", "--model", str(tmp_path / "absorbing.json"),
                "--out", str(interp)) == 0
    artifacts[interp] = "interpret-report"
    assert "inf" in load_json(interp)["hold_lengths_frames"]
    for path, kind in artifacts.items():
        jsonschema.validate(load_json(path), load_schema(kind))


@pytest.mark.parametrize("kind, obj, key", [
    ("model", {"format": "mh-model", "config": {"tol": math.inf}}, "config.tol"),
    ("eval-report", {"per_seed": [0.5, math.nan]}, "per_seed.1"),
    ("interpret-report", {"frame_ms": -math.inf}, "frame_ms"),
], ids=["model-config", "eval-per-seed", "interpret-frame-ms"])
def test_validate_artifact_names_the_key_of_a_non_finite_number(kind, obj, key):
    with pytest.raises(InvariantViolation, match=f"^{kind} artifact: {key} has non-finite"):
        validate_artifact(kind, obj)


@pytest.mark.parametrize("argv, out, message", [
    (("train", "--corpus", "{corpus}", "--max-iters", "2", "--tol", "inf"), "model.json",
     "argument --tol: must be finite, got inf"),
    (("train", "--corpus", "{corpus}", "--max-iters", "2", "--tol=-inf"), "model.json",
     "argument --tol: must be finite, got -inf"),
    (("train", "--corpus", "{corpus}", "--max-iters", "2", "--tol", "nan"), "model.json",
     "argument --tol: must be finite, got nan"),
    (("interpret", "--model", "{truth}", "--frame-ms", "nan"), "r.json",
     "argument --frame-ms: must be positive and finite, got nan"),
    (("interpret", "--model", "{truth}", "--frame-ms", "inf"), "r.json",
     "argument --frame-ms: must be positive and finite, got inf"),
    (("synth", "--p-frames", "0"), "c.jsonl", "argument --p-frames: must be at least 1, got 0"),
    (("generate", "--model", "{truth}", "--p-frames", "0"), "g.jsonl",
     "argument --p-frames: must be at least 1, got 0"),
    (("train", "--corpus", "{corpus}", "--max-iters", "0"), "model.json",
     "argument --max-iters: must be at least 1, got 0"),
    (("train", "--corpus", "{corpus}", "--model", "gmm-lda", "--topics", "0"), "model.json",
     "argument --topics: must be at least 1, got 0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--seeds", "0"), "r.json",
     "argument --seeds: must be at least 1, got 0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--hidden", "0"), "r.json",
     "argument --hidden: must be at least 1, got 0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--epochs", "-2"), "r.json",
     "argument --epochs: must be at least 0, got -2"),
    (("train", "--corpus", "{corpus}", "--n-states", "0"), "model.json",
     "argument --n-states: must be at least 1, got 0"),
    (("generate", "--model", "{truth}", "--n", "0"), "g.jsonl",
     "argument --n: must be at least 1, got 0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--split", "1.5"), "r.json",
     "argument --split: must be strictly between 0 and 1, got 1.5"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--split", "0"), "r.json",
     "argument --split: must be strictly between 0 and 1, got 0.0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--lr", "nan"), "r.json",
     "argument --lr: must be positive and finite, got nan"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--lr", "0"), "r.json",
     "argument --lr: must be positive and finite, got 0.0"),
    (("evaluate", "--real", "{corpus}", "--model", "{truth}", "--lr=-0.5"), "r.json",
     "argument --lr: must be positive and finite, got -0.5"),
    (("synth", "--m-signs", "0"), "c.jsonl", "argument --m-signs: must be at least 1, got 0"),
    (("synth", "--n-states", "1"), "c.jsonl", "argument --n-states: must be at least 2, got 1"),
    (("synth", "--sigma", "0"), "c.jsonl", "argument --sigma: must be positive and finite, got 0.0"),
    (("synth", "--separation", "nan"), "c.jsonl", "argument --separation: must be finite, got nan"),
    (("synth", "--self-stick", "1.5"), "c.jsonl",
     "argument --self-stick: must be between 0 and 1, got 1.5"),
    (("synth", "--end-prob", "inf"), "c.jsonl",
     "argument --end-prob: must be finite and at least 0, got inf"),
    (("synth", "--end-prob", "-1"), "c.jsonl",
     "argument --end-prob: must be finite and at least 0, got -1.0"),
    (("interpret", "--model", "{truth}", "--horizon", "0"), "r.json",
     "argument --horizon: must be at least 1, got 0"),
    # prior flags fail before the (missing) corpus is opened
    (("train", "--corpus", "{missing}", "--alpha", "nan"), "model.json",
     "argument --alpha: must be finite, got nan"),
    (("train", "--corpus", "{missing}", "--sigma-mu", "-1"), "model.json",
     "sigma_mu must be positive"),
], ids=["tol-inf", "tol-minus-inf", "tol-nan", "frame-ms-nan", "frame-ms-inf", "synth-p-frames-0",
        "generate-p-frames-0", "max-iters-0", "topics-0", "seeds-0", "hidden-0", "epochs-minus-2",
        "n-states-0", "generate-n-0", "split-1.5", "split-0", "lr-nan", "lr-0", "lr-minus-0.5",
        "m-signs-0", "synth-n-states-1", "sigma-0", "separation-nan", "self-stick-1.5", "end-prob-inf",
        "end-prob-minus-1", "horizon-0", "alpha-nan-missing-corpus",
        "sigma-mu-minus-1-missing-corpus"])
def test_cli_rejects_non_finite_and_zero_size_flags(tiny_pipeline, capsys, argv, out, message):
    tmp_path, corpus = tiny_pipeline
    names = {"corpus": corpus, "truth": tmp_path / "truth.json",
             "missing": tmp_path / "missing.jsonl"}
    out_flag = "--report" if argv[0] == "evaluate" else "--out"
    try:
        code = _run(*(arg.format(**names) for arg in argv), out_flag, str(tmp_path / out))
    except SystemExit as stop:  # a flag rejected while parsing arguments
        code = stop.code
    assert code == 1
    # argparse names the subcommand in its prefix: "mh-phone train: error: ..."
    err = capsys.readouterr().err
    assert re.search(rf"^mh-phone( {argv[0]})?: error: {re.escape(message)}$", err, re.M)
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("flag, value", [("--end-prob", "2"), ("--self-stick", "1"),
                                         ("--separation", "-1")])
def test_cli_synth_accepts_edge_values_the_library_accepts(tmp_path, flag, value):
    assert _run("synth", "--n-states", "3", "--m-signs", "3", "--p-frames", "4", flag, value,
                "--out", str(tmp_path / "c.jsonl")) == 0


def test_cli_train_baseline_accepts_one_component(tiny_pipeline):
    # --n-states is checked at parse time only for >= 1; the >= 2 rule is the dbn's own
    tmp_path, corpus = tiny_pipeline
    assert _run("train", "--corpus", str(corpus), "--model", "gmm", "--n-states", "1",
                "--max-iters", "2", "--out", str(tmp_path / "gmm1.json")) == 0


# Each recording command's config keys, in order: every flag it declares
# except --threads and --log-level.
_RECORDED = {
    "synth": ["command", "seed", "n_states", "m_signs", "p_frames", "sigma", "self_stick",
              "end_prob", "separation", "noisy_end_token", "out", "truth_out"],
    "train": ["command", "seed", "corpus", "model", "n_states", "e_step", "topics",
              "max_iters", "tol", "include_broken", "out", "alpha", "mu_mu", "sigma_mu",
              "mu_sigma", "sigma_sigma"],
    "generate": ["command", "seed", "model", "n", "p_frames", "noisy_end_token", "out"],
    "evaluate": ["command", "seed", "real", "model", "seeds", "epochs", "lr", "hidden",
                 "split", "include_broken", "report"],
    "interpret": ["command", "seed", "model", "frame_ms", "horizon", "include_end_state",
                  "out"],
}


def _corpus_config(path):
    return json.loads(path.read_text().splitlines()[0])["config"]


def test_cli_artifacts_record_their_flags_in_declaration_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    info = ("--log-level", "info")
    assert _run("synth", "--n-states", "3", "--m-signs", "12", "--p-frames", "6", *info,
                "--out", "c.jsonl", "--truth-out", "t.json") == 0
    assert _run("train", "--corpus", "c.jsonl", "--n-states", "3", "--max-iters", "2",
                "--threads", "1", *info, "--out", "m.json") == 0
    assert _run("generate", "--model", "m.json", "--n", "4", "--p-frames", "6", *info,
                "--out", "g.jsonl") == 0
    assert _run("evaluate", "--real", "c.jsonl", "--model", "m.json", "--seeds", "1",
                "--epochs", "1", "--hidden", "2", *info, "--report", "r.json") == 0
    assert _run("interpret", "--model", "m.json", *info, "--out", "i.json") == 0
    recorded = [("synth", _corpus_config(tmp_path / "c.jsonl")),
                ("synth", load_json(tmp_path / "t.json")["config"]),
                ("train", load_json(tmp_path / "m.json")["config"]),
                ("generate", _corpus_config(tmp_path / "g.jsonl")),
                ("evaluate", load_json(tmp_path / "r.json")["config"]),
                ("interpret", load_json(tmp_path / "i.json")["config"])]
    for command, config in recorded:
        assert list(config) == _RECORDED[command]
        assert config["command"] == command
        assert not {"threads", "log_level", "func"} & set(config)


def test_cli_synth_bytes_are_pinned(tmp_path, monkeypatch):
    # relative paths, because the config records --out and --truth-out as given
    monkeypatch.chdir(tmp_path)
    assert _run("synth", "--n-states", "3", "--m-signs", "5", "--p-frames", "6", "--seed", "11",
                "--out", "c.jsonl", "--truth-out", "t.json") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("c.jsonl", "t.json")}
    assert digests == {
        "c.jsonl": "cf18c2cc6b2811612bafa113cf08009a0f96e0cf454184cb9807622dde41073a",
        "t.json": "a1569695daf06b41a125aa8693a7217b7f7a3a1abb1ec128256b7a3c2489ec79",
    }


@pytest.mark.parametrize("raw", [b'{"format": "mh-model", "x": "\xff"}\n', b"[" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_load_model_reports_unreadable_json(tmp_path, raw):
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="malformed JSON"):
        load_model(path)


def _fresh_python(*args, **env):
    """Run `python *args` in a new interpreter that imports this mh_phone,
    with the environment variables `env` on top of this one's."""
    src = os.path.dirname(os.path.dirname(sys.modules["mh_phone"].__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env})


def _imported_by_the_cli(module):
    code = f"import sys, mh_phone.cli; print({module!r} in sys.modules)"
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_importing_the_cli_does_not_import_jsonschema():
    assert not _imported_by_the_cli("jsonschema")


def test_importing_the_cli_does_not_import_multiprocessing():
    # nothing in mh_phone starts a process
    assert not _imported_by_the_cli("multiprocessing")


def test_every_exported_name_resolves():
    import mh_phone
    namespace = {}
    exec("from mh_phone import *", namespace)  # raises for a listed name the package lacks
    assert set(mh_phone.__all__) <= namespace.keys()


@pytest.mark.parametrize("companion", [True, False], ids=["companion", "decoder"])
def test_only_a_save_imports_the_float_text_kernel_and_builds_its_tables(tmp_path, companion):
    path = tmp_path / "c.jsonl"
    save_corpus(synth_corpus(make_truth_params(3, 4, seed=1), 20, seed=2)[0], path)
    if not companion:
        os.remove(tmp_path / "c.jsonl.npz")
    code = ("import sys, mh_phone.cli; from mh_phone import corpus; "
            f"corpus.load_corpus({str(path)!r}); print('mh_phone.floatrepr' in sys.modules); "
            "from mh_phone import floatrepr; print(floatrepr._tables.cache_info().currsize)")
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "0"]

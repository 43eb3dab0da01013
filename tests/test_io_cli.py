"""Artifact persistence and the command line pipeline."""

import dataclasses
import json
import math

import numpy as np
import pytest

from mh_phone.baselines import GmmLdaParams, GmmParams
from mh_phone.cli import main
from mh_phone.corpus import load_corpus
from mh_phone.errors import InvariantViolation, ParseError
from mh_phone.io import (dump_json, load_json, load_model, load_schema,
                         model_kind, save_model, validate_artifact)
from mh_phone.params import MODEL_KINDS, Hyperparams

from helpers import random_params


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
    assert _run("export-samples", "--model", str(model_path), "--n", "6",
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


def test_cli_train_rejects_zero_max_iters(tiny_pipeline, capsys):
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "model.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--max-iters", "0") == 1
    assert "mh-phone: error: max_iters must be at least 1, got 0" in capsys.readouterr().err
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
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "model.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--model", kind, flag, value) == 1
    assert f"mh-phone: error: {field} has non-finite entries" in capsys.readouterr().err
    assert not model_path.exists()


def test_cli_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        _run("train", "--out", "x.json")
    assert err.value.code == 1
    assert "--corpus" in capsys.readouterr().err


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


def test_cli_log_level_from_environment(tiny_pipeline, monkeypatch):
    tmp_path, corpus = tiny_pipeline
    monkeypatch.setenv("MH_PHONE_LOG", "debug")
    assert _run("train", "--corpus", str(corpus),
                "--out", str(tmp_path / "m.json"), "--max-iters", "5") == 0


def test_cli_excludes_broken_signs_by_default(tmp_path):
    # Hand-build a corpus where one sign is marked broken and sits far away;
    # training with and without it must differ, and the default must match
    # training on the clean subset.
    from mh_phone.corpus import Corpus, SignSequence, save_corpus

    rng = np.random.default_rng(83)
    clean = [SignSequence(gloss=f"c{i}", features=rng.normal(0, 0.3, (6, 2)) + 1.0,
                          true_length=6, noise="low") for i in range(8)]
    broken = [SignSequence(gloss="b0", features=np.full((6, 2), 40.0),
                           true_length=6, noise="broken")]
    path = tmp_path / "mix.jsonl"
    save_corpus(Corpus(clean + broken), path)

    out_default = tmp_path / "default.json"
    out_subset = tmp_path / "subset.json"
    out_all = tmp_path / "all.json"
    assert _run("train", "--corpus", str(path), "--out", str(out_default),
                "--n-states", "2", "--max-iters", "10", "--seed", "4") == 0
    clean_path = tmp_path / "clean.jsonl"
    save_corpus(Corpus(clean), clean_path)
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


def test_cli_export_samples_deterministic(tiny_pipeline):
    tmp_path, corpus = tiny_pipeline
    model_path = tmp_path / "m.json"
    assert _run("train", "--corpus", str(corpus), "--out", str(model_path),
                "--n-states", "2", "--max-iters", "5") == 0
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run("export-samples", "--model", str(model_path), "--n", "4",
                "--p-frames", "6", "--out", str(a), "--seed", "3") == 0
    assert _run("export-samples", "--model", str(model_path), "--n", "4",
                "--p-frames", "6", "--out", str(b), "--seed", "3") == 0
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "0", "n_seeds must be at least 1, got 0"),
    ("--epochs", "-2", "epochs must not be negative, got -2"),
])
def test_cli_evaluate_rejects_bad_seed_and_epoch_counts(tiny_pipeline, capsys,
                                                        flag, value, message):
    tmp_path, corpus = tiny_pipeline
    report_path = tmp_path / "report.json"
    assert _run("evaluate", "--real", str(corpus), "--model",
                str(tmp_path / "truth.json"), "--report", str(report_path),
                flag, value) == 1
    assert f"mh-phone: error: {message}" in capsys.readouterr().err
    assert not report_path.exists()

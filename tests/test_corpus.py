"""Corpus tests: pose normalization, padding, JSONL and binary persistence, synthesis."""

import hashlib
import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import zipfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mh_phone import corpus as corpus_module
from mh_phone import floatrepr
from mh_phone.corpus import (FEATURE_ORDER, KEYPOINTS, N_FEATURES, NOISE_LEVELS,
                             Corpus, RawSign, ingest_raw_signs, load_corpus,
                             normalize_pose, save_corpus, synth_corpus)
from mh_phone.errors import (DegenerateScale, InvariantViolation, MhPhoneError,
                             ParseError, TooLong)
from mh_phone.io import load_model
from mh_phone.params import MODEL_KINDS, Hyperparams, ModelParams, make_truth_params

from helpers import file_bytes, random_corpus, raw_frame


def test_normalize_translated_unit_shoulders():
    frame = raw_frame(head=(5.0, 5.0), rsh=(4.0, 5.0), lsh=(6.0, 5.0),
                      relb=(5.0, 5.0), lelb=(5.0, 5.0),
                      rwr=(5.0, 5.0), lwr=(5.0, 5.0))
    out = normalize_pose(frame)
    assert out.shape == (N_FEATURES,)
    assert np.array_equal(out[:2], [0.0, 0.0])
    assert np.allclose(out[2:4], [-1.0, 0.0])
    assert np.allclose(out[4:6], [1.0, 0.0])
    assert np.allclose(out[6:], 0.0)


def test_normalize_hand_computed_scale():
    # oracle: the unit of length is the mean of the two head-shoulder distances
    head, rsh, lsh = np.zeros(2), np.array([2.0, 0.0]), np.array([-2.0, 0.0])
    rwr = np.array([1.0, 1.0])
    scale = 0.5 * (np.linalg.norm(rsh - head) + np.linalg.norm(lsh - head))
    out = normalize_pose(raw_frame(head=head, rsh=rsh, lsh=lsh, rwr=rwr))
    idx = FEATURE_ORDER.index("right_wrist.x")
    assert np.allclose(out[idx:idx + 2], (rwr - head) / scale)
    assert np.allclose(out[idx:idx + 2], [0.5, 0.5])


def test_normalize_head_always_exactly_origin():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = rng.normal(0.0, 5.0, size=(7, 2))
        frame = {name: pts[k] for k, name in enumerate(KEYPOINTS)}
        out = normalize_pose(frame)
        assert out[0] == 0.0 and out[1] == 0.0


def test_normalize_similarity_invariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(0.0, 2.0, size=(7, 2))
    base = normalize_pose({name: pts[k] for k, name in enumerate(KEYPOINTS)})
    moved = {name: pts[k] * 3.5 + np.array([40.0, -7.0])
             for k, name in enumerate(KEYPOINTS)}
    assert np.allclose(normalize_pose(moved), base)


def test_normalize_degenerate_scale():
    frame = raw_frame(head=(1.0, 1.0), rsh=(1.0, 1.0), lsh=(1.0, 1.0))
    with pytest.raises(DegenerateScale):
        normalize_pose(frame)


def test_normalize_rejects_missing_or_bad_keypoints():
    frame = raw_frame()
    del frame["left_wrist"]
    with pytest.raises(InvariantViolation, match="left_wrist"):
        normalize_pose(frame)
    with pytest.raises(InvariantViolation):
        normalize_pose(raw_frame(rwr=(np.nan, 0.0)))


def _raw_signs(*lengths):
    """Raw signs of the given frame counts, each frame a random pose."""
    rng = np.random.default_rng(sum(lengths))
    return [RawSign(gloss=f"g{i}", signer_id=f"s{i}", noise_level="none",
                    frames=[{name: tuple(rng.normal(size=2)) for name in KEYPOINTS}
                            for _ in range(length)])
            for i, length in enumerate(lengths)]


def _normalized(raw):
    return np.stack([normalize_pose(frame) for frame in raw.frames])


def test_pad_adds_zero_suffix():
    raws = _raw_signs(3, 1)
    corp = ingest_raw_signs(raws, 8)
    assert corp.true_lengths.tolist() == [3, 1]
    assert corp.dims == (2, 8, N_FEATURES)
    np.testing.assert_array_equal(corp.features[0, :3], _normalized(raws[0]))
    np.testing.assert_array_equal(corp.features[1, :1], _normalized(raws[1]))
    assert not corp.features[0, 3:].any() and not corp.features[1, 1:].any()


def test_pad_exact_fit_unchanged():
    raws = _raw_signs(25)
    corp = ingest_raw_signs(raws, 25)
    assert corp.true_lengths.tolist() == [25]
    np.testing.assert_array_equal(corp.features[0], _normalized(raws[0]))


def test_pad_too_long():
    with pytest.raises(TooLong, match="^sign has 26 frames, more than the padded length 25$"):
        ingest_raw_signs(_raw_signs(3, 26), 25)


def test_ingest_needs_at_least_one_sign():
    with pytest.raises(InvariantViolation, match="M >= 1"):
        ingest_raw_signs([])


def test_sign_rejects_payload_after_zero_row():
    feats = np.ones((1, 4, 3))
    feats[0, 1] = 0.0
    with pytest.raises(InvariantViolation, match="^sign 0: .*contiguous suffix"):
        Corpus.from_arrays(feats, [4], ["g"], [""], ["none"])


def test_sign_rejects_nonzero_padding():
    with pytest.raises(InvariantViolation, match="^sign 0: .*past true_length"):
        Corpus.from_arrays(np.ones((1, 4, 3)), [2], ["g"], [""], ["none"])


def test_sign_features_are_read_only():
    corp = ingest_raw_signs(_raw_signs(2), 5)
    with pytest.raises(ValueError):
        corp.features[0, 0, 0] = 9.0


def test_raw_sign_validation():
    with pytest.raises(InvariantViolation, match="noise_level"):
        RawSign(gloss="g", signer_id="s", noise_level="terrible",
                frames=(raw_frame(),))
    with pytest.raises(InvariantViolation):
        RawSign(gloss="g", signer_id="s", noise_level="none", frames=())


def test_ingest_normalizes_and_pads():
    frames = [raw_frame(head=(k, 0.0), rsh=(k + 1.0, 0.0), lsh=(k - 1.0, 0.0))
              for k in range(4)]
    raw = RawSign(gloss="wave", signer_id="s1", noise_level="low", frames=frames)
    corp = ingest_raw_signs([raw], n_frames=6)
    assert corp.true_lengths.tolist() == [4]
    assert (corp.glosses.tolist(), corp.signers.tolist(), corp.noises.tolist()) == (
        ["wave"], ["s1"], ["low"])
    assert corp.dims == (1, 6, N_FEATURES)
    assert np.array_equal(corp.features[0, 0], normalize_pose(frames[0]))


def test_corpus_dims_filter_and_immutability():
    rng = np.random.default_rng(5)
    feats = np.zeros((4, 5, 6))
    feats[:, :3] = rng.normal(size=(4, 3, 6))
    corp = Corpus.from_arrays(feats, [3] * 4, [f"g{i}" for i in range(4)], [""] * 4,
                              ["broken" if i % 2 else "none" for i in range(4)])
    assert corp.dims == (4, 5, 6)
    assert len(corp) == 4 and corp.glosses[1] == "g1"
    kept = corp.without_noise("broken")
    assert len(kept) == 2
    assert kept.noises.tolist() == ["none", "none"]
    with pytest.raises(InvariantViolation):
        corp.without_noise("broken", "none")
    with pytest.raises(ValueError):
        corp.features[0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        corp.signs = ()


COLUMNS = ("features", "true_lengths", "glosses", "signers", "noises")


def _mixed_corpus(m=6, p=5, d=3):
    """m signs of 1 to p data rows, two signers and every noise level."""
    rng = np.random.default_rng(12)
    feats = np.zeros((m, p, d))
    lengths = [1 + k % p for k in range(m)]
    for k in range(m):
        feats[k, :lengths[k]] = rng.normal(size=(lengths[k], d))
    return Corpus.from_arrays(feats, lengths, [f"g{k}" for k in range(m)],
                              [f"s{k % 2}" for k in range(m)],
                              [NOISE_LEVELS[k % len(NOISE_LEVELS)] for k in range(m)])


def test_corpus_columns_are_read_only():
    corp = _mixed_corpus()
    for name in COLUMNS:
        column = getattr(corp, name)
        with pytest.raises(ValueError):
            column[0] = column[1]
        with pytest.raises(AttributeError):
            setattr(corp, name, column.copy())


def test_a_corpus_is_built_only_by_from_arrays():
    corp = _mixed_corpus()
    for args in [(), tuple(getattr(corp, name) for name in COLUMNS)]:
        with pytest.raises(TypeError, match="Corpus.from_arrays"):
            Corpus(*args)


def _columns(m):
    return [1] * m, ["g"] * m, ["s"] * m, ["none"] * m


def test_from_arrays_keeps_a_frozen_array_it_owns():
    feats = np.ones((3, 1, 2))
    feats.flags.writeable = False
    assert Corpus.from_arrays(feats, *_columns(3)).features is feats


def test_from_arrays_copies_writable_or_borrowed_features():
    feats = np.ones((3, 1, 2))
    corp = Corpus.from_arrays(feats, *_columns(3))
    feats[:] = 5.0
    np.testing.assert_array_equal(corp.features, 1.0)
    assert feats.flags.writeable
    view = feats[:]
    view.flags.writeable = False  # read-only, but feats can still write its data
    corp = Corpus.from_arrays(view, *_columns(3))
    feats[:] = 7.0
    np.testing.assert_array_equal(corp.features, 5.0)


def _save_jsonl_only(corp, path, config=None):
    """Save `corp` as a JSONL with no companion, so that a load of it runs
    the JSONL decoder."""
    save_corpus(corp, path, config=config)
    os.remove(f"{path}.npz")


def _load_from_companion(path):
    """load_corpus(path), failing if the JSONL decoder runs."""
    with mock.patch.object(corpus_module, "_decode",
                           side_effect=AssertionError("the JSONL decoder ran")):
        return load_corpus(path)


def _load_peak_over_features(tmp_path, companion=False):
    truth = make_truth_params(5, 14, seed=5)
    path = tmp_path / "c.jsonl"
    save = save_corpus if companion else _save_jsonl_only
    load = _load_from_companion if companion else load_corpus
    save(synth_corpus(truth, 300, seed=6)[0], path)
    load(path)  # a first load imports what loads need
    tracemalloc.start()
    try:
        corp = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / corp.features.nbytes


def test_load_corpus_holds_the_padded_features_once(tmp_path):
    # the stacked frames and the padded array overlap; a copy of the padded
    # array on top of them took the peak to about 2.25 times the features
    assert _load_peak_over_features(tmp_path) < 2


def test_a_companion_load_holds_the_features_once(tmp_path):
    # the features are read in blocks into the corpus's own array
    assert _load_peak_over_features(tmp_path, companion=True) < 2


def _traced_peak(fn):
    """(result, tracemalloc peak) of fn() in this process."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_without_noise_holds_the_kept_features_once():
    # the kept features are a new array that the corpus adopts; copying it
    # again took the peak to 2.0 times the kept features
    corp = synth_corpus(make_truth_params(5, 14, seed=5), 4000, seed=6)[0]
    noises = np.where(np.arange(len(corp)) % 2 == 0, "broken", "none")
    mixed = Corpus.from_arrays(corp.features, corp.true_lengths, corp.glosses,
                               corp.signers, noises)
    mixed.without_noise("broken")  # a first call imports what it needs
    kept, peak = _traced_peak(lambda: mixed.without_noise("broken"))
    assert len(kept) == 2000 and peak / kept.features.nbytes < 1.5


def test_synth_corpus_holds_the_features_once():
    # the frames are drawn into the corpus's own array; with a full-size
    # array of normals, of means and of their sum it peaked at 3.1 times
    truth = make_truth_params(5, 14, seed=5)
    synth_corpus(truth, 10, seed=6)
    (corp, _), peak = _traced_peak(lambda: synth_corpus(truth, 3000, seed=6))
    assert peak / corp.features.nbytes < 1.3


def test_without_noise_gives_the_corpus_itself_when_nothing_is_dropped():
    corp = _mixed_corpus()
    assert corp.without_noise("absent") is corp


def test_without_noise_keeps_the_order_of_the_remaining_signs():
    corp = _mixed_corpus(m=12)
    kept = corp.without_noise("low", "broken")
    want = ~np.isin(corp.noises, ("low", "broken"))
    assert kept.glosses.tolist() == ["g0", "g2", "g3", "g5", "g7", "g8", "g10"]
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(kept, name), getattr(corp, name)[want])


def _spoil_finite(feats, lengths, noises):
    feats[3, 0, 0] = np.inf


def _spoil_length(feats, lengths, noises):
    lengths[3] = feats.shape[1] + 1


def _spoil_noise(feats, lengths, noises):
    noises[3] = "terrible"


def _spoil_padding(feats, lengths, noises):
    feats[3, -1] = 1.0


def _spoil_suffix(feats, lengths, noises):
    feats[3, 0] = 0.0


@pytest.mark.parametrize("spoil, match", [
    (_spoil_finite, "features must be finite"),
    (_spoil_length, r"true_length must be in \[1, 4\], got 5"),
    (_spoil_noise, "noise must be one of"),
    (_spoil_padding, "end token violation: rows past true_length"),
    (_spoil_suffix, "end token violation: zero rows must form a contiguous suffix"),
])
def test_batch_check_names_the_bad_sign(spoil, match):
    rng = np.random.default_rng(6)
    feats = np.zeros((5, 4, 2))
    feats[:, :2] = rng.normal(size=(5, 2, 2))
    lengths, noises = [2] * 5, ["none"] * 5
    Corpus.from_arrays(feats, lengths, ["g"] * 5, ["s"] * 5, noises)
    spoil(feats, lengths, noises)
    with pytest.raises(InvariantViolation, match=f"^sign 3: {match}") as err:
        Corpus.from_arrays(feats, lengths, ["g"] * 5, ["s"] * 5, noises)
    assert err.value.sign == 3


def test_corpus_rejects_mixed_shapes():
    feats = np.ones((2, 5, 3))
    for args in [(feats[0], [5], ["g"]), (feats, [5], ["g", "h"]), (feats, [5, 5], ["g"]),
                 (feats[:0], [], [])]:  # the last has no signs
        m = len(args[1])
        with pytest.raises(InvariantViolation, match="^a corpus needs"):
            Corpus.from_arrays(*args, [""] * m, ["none"] * m)


def test_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(9)
    corp = random_corpus(rng, m=6, p=7, d=N_FEATURES)
    path = tmp_path / "c.jsonl"
    _save_jsonl_only(corp, path, config={"command": "test", "seed": 3})
    back = load_corpus(path)
    assert back.dims == corp.dims
    assert np.array_equal(back.features, corp.features)
    assert np.array_equal(back.true_lengths, corp.true_lengths)
    assert back.glosses.tolist() == corp.glosses.tolist()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["format"] == "mh-corpus" and header["version"] == 1
    assert header["D"] == N_FEATURES and header["P"] == 7
    assert header["feature_order"] == list(FEATURE_ORDER)
    assert header["config"] == {"command": "test", "seed": 3}


def _write_corpus_file(path, records, d=3, p=4):
    header = {"format": "mh-corpus", "version": 1, "D": d, "P": p,
              "feature_order": [f"f{i}" for i in range(d)]}
    lines = [json.dumps(header)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")


def _record(frames, gloss="g", signer="s", noise="none"):
    return {"gloss": gloss, "signer": signer, "noise": noise, "frames": frames}


def test_load_two_records(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 0.0, 0.0]]),
                              _record([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])])
    corp = load_corpus(path)
    assert len(corp) == 2
    assert list(corp.true_lengths) == [1, 2]
    assert corp.dims == (2, 4, 3)


def test_load_wrong_feature_count(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 2.0]])])
    with pytest.raises(InvariantViolation, match="expected 3 features"):
        load_corpus(path)


def test_load_payload_after_zero_row(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])])
    with pytest.raises(InvariantViolation, match="end token"):
        load_corpus(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    header = {"format": "mh-corpus", "version": 1, "D": 3, "P": 4,
              "feature_order": ["f0", "f1", "f2"]}
    path.write_text(json.dumps(header) + "\n"
                    + json.dumps(_record([[1.0, 0.0, 0.0]])) + "\n{oops\n")
    with pytest.raises(ParseError, match="line 3"):
        load_corpus(path)


def test_load_rejects_foreign_or_broken_headers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_corpus(path)
    path.write_text("")
    with pytest.raises(ParseError):
        load_corpus(path)
    _write_corpus_file(path, [])
    with pytest.raises(InvariantViolation, match="no signs"):
        load_corpus(path)


def test_load_names_the_line_of_a_bad_third_record(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 0.0, 0.0]]),
                              _record([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
                              _record([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])])
    with path.open("a") as fh:
        fh.write(json.dumps(_record([[5.0, 0.0, 0.0]])) + "\n")
    with pytest.raises(InvariantViolation,
                       match="^line 4: end token violation: zero rows must form"):
        load_corpus(path)


@pytest.mark.parametrize("value, kind", [
    (None, "null"), (7, "a number"), (["g"], "an array"), (True, "a boolean")])
@pytest.mark.parametrize("key", ["gloss", "signer", "noise"])
def test_load_rejects_metadata_that_is_not_a_string(tmp_path, key, value, kind):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 0.0, 0.0]]),
                              dict(_record([[1.0, 0.0, 0.0]]), **{key: value})])
    with pytest.raises(InvariantViolation, match=f"^line 3: {key} must be a string, got {kind}$"):
        load_corpus(path)


@pytest.mark.parametrize("header, record, line", [
    ({}, _record([[1.0, 2.0, 3.0], [1.0, 2.0]]), 2),  # ragged frames
    ({}, _record([["a", 1.0, 2.0]]), 2),              # a string value
    ({}, 5, 2),
    ({}, None, 2),
    ({"feature_order": 5}, _record([[1.0, 0.0, 0.0]]), 1),
    ({"D": 0}, _record([[1.0, 0.0, 0.0]]), 1),
    ({}, _record([["1.5", True, 2]]), 2),            # a numeric string and a bool
    ({}, _record([[1.0, 0.0, False]]), 2),
    ({"version": True}, _record([[1.0, 0.0, 0.0]]), 1),
])
def test_load_bad_input_names_its_line(tmp_path, header, record, line):
    path = tmp_path / "c.jsonl"
    head = {"format": "mh-corpus", "version": 1, "D": 3, "P": 4, **header}
    path.write_text(json.dumps(head) + "\n" + json.dumps(record) + "\n")
    with pytest.raises((ParseError, InvariantViolation), match=f"^line {line}: "):
        load_corpus(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12)


@st.composite
def _corpus_files(draw):
    """A header and records that are valid, or broken in random values, types,
    nesting and raw bytes."""
    d, p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    header = {"format": "mh-corpus", "version": 1, "D": d, "P": p}
    if draw(st.integers(0, 3)) == 3:
        header[draw(st.sampled_from(["format", "version", "D", "P", "feature_order"]))] = (
            draw(_JSON))
    lines = [json.dumps(header).encode()]
    value = st.sampled_from([0.0, 1.0, -2.5]) | st.floats()
    for _ in range(draw(st.integers(0, 4))):
        variant = draw(st.integers(0, 4))
        if variant == 4:
            lines.append(draw(st.binary(max_size=12)))
            continue
        record = {"gloss": "g", "signer": "s", "noise": draw(st.sampled_from(NOISE_LEVELS)),
                  "frames": draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                          min_size=1, max_size=p))}
        if variant == 1:
            record.update(draw(st.dictionaries(
                st.sampled_from(["gloss", "signer", "noise", "frames"]), _JSON, max_size=2)))
        elif variant == 2:
            del record[draw(st.sampled_from(sorted(record)))]
        elif variant == 3:
            record = draw(_JSON)
        lines.append(json.dumps(record).encode())
    return b"\n".join(lines)


def _outcome(path):
    """The columns of the corpus that `load_corpus` gives, or its error's
    type and text."""
    try:
        corpus = load_corpus(path)
    except MhPhoneError as exc:
        return type(exc), str(exc)
    assert isinstance(corpus, Corpus)
    return [getattr(corpus, name).tolist() for name in COLUMNS]


@settings(max_examples=200, deadline=None)
@given(_corpus_files())
def test_load_fuzzed_files_give_a_corpus_or_an_mh_phone_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(text)
    _outcome(path)


# ---------------------- JSONL saves: one process, json.dumps's bytes

def _reference_jsonl(corpus, config=None):
    """The JSONL json.dumps writes for `corpus`, a record at a time: the
    bytes `save_corpus` must give."""
    m, p, d = corpus.dims
    header = {"format": "mh-corpus", "version": 1, "D": d, "P": p,
              "feature_order": list(FEATURE_ORDER) if d == N_FEATURES else
              [f"f{i}" for i in range(d)]}
    if config is not None:
        header["config"] = config
    records = [json.dumps({"gloss": gloss, "signer": signer, "noise": noise,
                           "frames": features[:length].tolist()})
               for features, length, gloss, signer, noise in zip(
                   *(getattr(corpus, name) for name in COLUMNS))]
    return "".join(line + "\n" for line in [json.dumps(header), *records]).encode()


def _ingested_corpus(m, seed):
    """`m` signs through `ingest_raw_signs`, so every frame's head point is
    an exact zero; glosses that JSON escapes."""
    rng = np.random.default_rng(seed)
    return ingest_raw_signs([RawSign(
        gloss=f'g"{i}\u00e9\\', signer_id=f"s{i % 3}", noise_level="low",
        frames=[{name: tuple(rng.normal(0.0, 50.0, size=2)) for name in KEYPOINTS}
                for _ in range(rng.integers(1, 26))]) for i in range(m)])


@pytest.mark.parametrize("source", ["synth", "ingested"])
def test_a_saved_jsonl_is_the_text_json_dumps_writes(tmp_path, source):
    corp = (synth_corpus(make_truth_params(5, 14, seed=3), 400, seed=4)[0]
            if source == "synth" else _ingested_corpus(120, seed=5))
    path = tmp_path / "c.jsonl"
    save_corpus(corp, path, config={"seed": 4, "source": source})
    assert path.read_bytes() == _reference_jsonl(corp, {"seed": 4, "source": source})


def test_ingested_signs_save_the_bytes_they_saved_one_sign_at_a_time(tmp_path):
    # the SHA-256 of this JSONL when each raw sign was padded and checked on
    # its own before the signs were stacked into a corpus
    save_corpus(_ingested_corpus(120, seed=5), tmp_path / "c.jsonl")
    assert hashlib.sha256((tmp_path / "c.jsonl").read_bytes()).hexdigest() == (
        "9e77de713f70f92eac3c62ef167257d2fe33d557d16e2c9a4e3e4bff52defbe8")


def test_a_save_holds_a_few_runs_in_this_process(tmp_path):
    # the float text is built a run of at most floatrepr.BLOCK_VALUES values
    # at a time; this process peaked at 0.24 times the features
    corp = synth_corpus(make_truth_params(5, 14, seed=5), 2000, seed=6)[0]
    save_corpus(corp, tmp_path / "warm.jsonl")  # builds the kernel's tables
    _, peak = _traced_peak(lambda: save_corpus(corp, tmp_path / "c.jsonl"))
    assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "warm.jsonl").read_bytes()
    assert peak / corp.features.nbytes < 0.3


def _assert_same_columns(got, want):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("m", [7, 41])  # runs of several signs, and signs longer than a run
def test_a_save_writes_each_record_as_json_dumps_does(tmp_path, monkeypatch, m):
    monkeypatch.setattr(floatrepr, "BLOCK_VALUES", 50)  # runs of at most 12 frames
    corp = synth_corpus(make_truth_params(3, 4, seed=1), m, seed=2)[0]
    path = tmp_path / "c.jsonl"
    save_corpus(corp, path, config={"seed": 1})
    assert path.read_bytes() == _reference_jsonl(corp, {"seed": 1})


def _interrupting_the_record_of(gloss):
    """json.dumps, with a Ctrl-C while it encodes the gloss `gloss`."""
    dumps = json.dumps

    def interrupted(obj, *args, **kwargs):
        if obj == gloss:
            raise KeyboardInterrupt
        return dumps(obj, *args, **kwargs)
    return mock.patch.object(json, "dumps", interrupted)


@contextmanager
def _interrupting_the_kernel(new):
    """With runs of at most 10 frames, a Ctrl-C in the digit search of the
    third run, so two runs are in the file before it."""
    search, calls = floatrepr.shortest_digits, []

    def interrupted(values):
        calls.append(len(values))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return search(values)
    with mock.patch.object(floatrepr, "BLOCK_VALUES", 40), \
            mock.patch.object(floatrepr, "shortest_digits", interrupted):
        try:
            yield
        finally:
            assert len(calls) == 3 and new.true_lengths.sum() > 3 * 10


@pytest.mark.parametrize("interrupting", [lambda new: _interrupting_the_record_of(
    new.glosses[-1]), _interrupting_the_kernel], ids=["serial", "mid-kernel"])
def test_an_interrupted_save_leaves_the_old_corpus_and_companion(tmp_path, interrupting):
    old = synth_corpus(make_truth_params(3, 4, seed=1), 41, seed=2)[0]
    path = tmp_path / "c.jsonl"
    save_corpus(old, path)
    before = file_bytes(tmp_path)
    new = synth_corpus(make_truth_params(3, 4, seed=3), 41, seed=4)[0]
    with pytest.raises(KeyboardInterrupt), interrupting(new):
        save_corpus(new, path)
    assert file_bytes(tmp_path) == before  # no temporary file either
    _assert_identical(load_corpus(path), old)


def test_an_interrupted_npz_save_leaves_the_old_file(tmp_path):
    path = tmp_path / "c.npz"
    save_corpus(synth_corpus(make_truth_params(3, 4, seed=1), 41, seed=2)[0], path)
    before = file_bytes(tmp_path)
    write_npy = corpus_module._write_npy

    def interrupted(zf, name, array):
        write_npy(zf, name, array)  # the lengths member is written, the features are not
        raise KeyboardInterrupt
    new = synth_corpus(make_truth_params(3, 4, seed=3), 3000, seed=4)[0]
    with mock.patch.object(corpus_module, "_write_npy", interrupted), \
            pytest.raises(KeyboardInterrupt):
        save_corpus(new, path)
    assert file_bytes(tmp_path) == before


_LONG_NAMES = {f"{n}-bytes": "c" * (n - 6) + ".jsonl" for n in (200, *range(242, 256))}
# two-byte characters from an even and from an odd offset: whatever the
# length of the temporary suffix, one of the two names is cut mid-character
_LONG_NAMES["utf-8-254-bytes"] = "\u00e9" * 124 + ".jsonl"
_LONG_NAMES["utf-8-254-bytes-shifted"] = "c" + "\u00e9" * 123 + "c.jsonl"


@pytest.mark.parametrize("name", list(_LONG_NAMES.values()), ids=list(_LONG_NAMES))
def test_a_save_to_any_legal_name_replaces_it_whole_and_loads_back(tmp_path, name):
    size, name_max = len(os.fsencode(name)), os.pathconf(tmp_path, "PC_NAME_MAX")
    if size > name_max:
        pytest.skip(f"this file system's names stop at {name_max} bytes")
    corp = _edge_corpus("non-ascii")
    path = tmp_path / name
    path.write_text("old\n")
    os.chmod(path, 0o600)
    with mock.patch.object(os, "replace", wraps=os.replace) as replace:
        save_corpus(corp, path)
    for temp, target in (call.args for call in replace.call_args_list):
        temp, target = (os.fsencode(os.path.basename(p)) for p in (temp, target))
        assert len(temp) <= len(target)
        temp.decode("utf-8")  # cut between characters
    # the companion's name is 4 bytes longer; where that does not fit there is none
    with_companion = size + len(".npz") <= name_max
    assert replace.call_count == 1 + with_companion
    assert sorted(os.listdir(tmp_path)) == [name, name + ".npz"][:1 + with_companion]
    umask = os.umask(0)
    os.umask(umask)
    for kept in os.listdir(tmp_path):
        assert stat.S_IMODE(os.stat(tmp_path / kept).st_mode) == 0o666 & ~umask
    with mock.patch.object(corpus_module, "_decode", wraps=corpus_module._decode) as decode:
        _assert_identical(load_corpus(path), corp)
    assert decode.called != with_companion


_SPELLINGS = {
    "blank-lines": lambda lines: "\n".join(x for line in lines for x in (line, "", " \t")),
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no-final-newline": lambda lines: "\n".join(lines),
}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
def test_a_jsonl_load_reads_any_spelling_of_its_lines(tmp_path, spelling):
    corp = synth_corpus(make_truth_params(3, 4, seed=1), 41, seed=2)[0]
    path = tmp_path / "c.jsonl"
    _save_jsonl_only(corp, path)
    path.write_bytes(_SPELLINGS[spelling](path.read_text().splitlines()).encode())
    _assert_same_columns(load_corpus(path), corp)


def _file_with_bad_lines(path, bad):
    """A 30-sign file with a blank line after every third record and each
    (record index, text) of `bad` in place of that record; gives the line of
    every bad record."""
    lines, at = [json.dumps({"format": "mh-corpus", "version": 1, "D": 3, "P": 4})], {}
    for k in range(30):
        if k in bad:
            at[k] = len(lines) + 1
        lines.append(bad.get(k, json.dumps(_record([[1.0 + k, 0.0, 0.0]]))))
        if k % 3 == 2:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")
    return at


def _load_error(path):
    with pytest.raises(MhPhoneError) as info:
        load_corpus(path)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "line", None)


_END_TOKEN = json.dumps(_record([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("bad, error, check", [
    ('{"gloss": "g"', ParseError, "malformed JSON record"),
    (json.dumps(_record([[1.0, 0.0, 0.0]] * 5)), TooLong, "sign has 5 frames"),
    (json.dumps(_record([[1.0, 0.0, 0.0]], signer=7)), InvariantViolation, "signer must be"),
    (_END_TOKEN, InvariantViolation, "end token violation: zero rows must form"),
    ('{"gloss": "g", "signer": "s", "noise": "none", "frames": [[NaN, 1, 2]]}',
     InvariantViolation, "features must be finite"),
], ids=["json", "too-long", "signer", "end-token", "nan"])
@pytest.mark.parametrize("sign", [20, 29], ids=["middle", "last"])
def test_a_jsonl_load_names_the_line_of_a_bad_record(tmp_path, bad, error, check, sign):
    path = tmp_path / "c.jsonl"
    line = _file_with_bad_lines(path, {sign: bad})[sign]
    kind, message, _ = _load_error(path)
    assert kind is error
    assert message.startswith(f"line {line}: {check}")


def test_a_jsonl_load_raises_the_first_bad_line_in_file_order(tmp_path):
    path = tmp_path / "c.jsonl"
    # a sign that fails check_signs early, then two records that fail to parse
    lines = _file_with_bad_lines(path, {3: _END_TOKEN, 17: "[", 28: "{"})
    assert _load_error(path) == (
        ParseError, f"line {lines[17]}: malformed JSON record: Expecting value", lines[17])


# ------------------------------------------- binary corpora and JSONL companions

def _without_companion(path):
    """A copy of the JSONL at `path` with no companion, whose load runs the
    JSONL decoder."""
    plain = path.with_name(f"plain-{path.name}")
    plain.write_bytes(path.read_bytes())
    return plain


def _edge_corpus(case):
    rng = np.random.default_rng(4)
    d = 3 if case == "d-3" else N_FEATURES
    lengths = [3, 1, 3, 2]
    feats = np.where((np.arange(5) < np.array(lengths)[:, None])[..., None],
                     rng.normal(size=(4, 5, d)), 0.0)
    glosses, signers = ["a", "b", "c", "d"], ["s"] * 4
    if case == "negative-zero-padding":
        feats[:, 3:] = -0.0
    elif case == "negative-zero-data":
        feats[0, 2, :2] = -0.0
        feats[3, 0, 1] = -0.0
    elif case == "trailing-nul":
        glosses[2], signers[1] = "g\x00", "\x00"
    elif case == "non-ascii":
        glosses = ["ä", "手話", "\U0001f642", "é"]
    elif case == "lone-surrogate":
        glosses[0], signers[3] = "\ud800", "x\udfff"
    return Corpus.from_arrays(feats, lengths, glosses, signers,
                              ["none", "low", "medium", "high"])


def _assert_identical(got, want):
    """Features equal bit for bit, so -0.0 and +0.0 differ, and the other
    columns equal with the same dtypes."""
    assert got.features.dtype == want.features.dtype and got.dims == want.dims
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    for name in COLUMNS[1:]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("case", ["negative-zero-padding", "negative-zero-data", "trailing-nul",
                                  "non-ascii", "lone-surrogate", "d-3"])
def test_the_companion_and_an_npz_give_exactly_what_the_jsonl_gives(tmp_path, case):
    corp = _edge_corpus(case)
    path = tmp_path / "c.jsonl"
    save_corpus(corp, path)
    decoded = load_corpus(_without_companion(path))
    _assert_identical(_load_from_companion(path), decoded)
    save_corpus(corp, tmp_path / "c.npz")
    _assert_identical(load_corpus(tmp_path / "c.npz"), decoded)
    if case == "negative-zero-padding":  # a JSONL load repads with +0.0
        assert not decoded.features[:, 3:].view(np.int64).any()


def test_a_corpus_built_with_negative_zero_padding_loads_back_bit_for_bit(tmp_path):
    feats = np.where(np.arange(4)[:, None] < 2, np.arange(1.0, 4.0), -0.0)[None].repeat(2, 0)
    feats.flags.writeable = False  # adopted without a copy, its padding made +0.0 in place
    corp = Corpus.from_arrays(feats, [2, 2], ["a", "b"], ["s", "s"], ["none", "low"])
    assert corp.features is feats and not feats[:, 2:].view(np.int64).any()
    path = tmp_path / "c.jsonl"
    save_corpus(corp, path)
    save_corpus(corp, tmp_path / "c.npz")
    for loaded in (load_corpus(_without_companion(path)), _load_from_companion(path),
                   load_corpus(tmp_path / "c.npz")):
        _assert_identical(loaded, corp)
    copied = _edge_corpus("negative-zero-padding")  # a writeable array is copied, then repadded
    assert not copied.features[:, 3:].view(np.int64).any()


def test_a_frozen_fortran_order_array_is_copied_to_c_order_and_saves(tmp_path):
    want = _edge_corpus("d-3")
    feats = np.asfortranarray(want.features)
    feats.flags.writeable = False
    assert feats.flags.owndata and not feats.flags.c_contiguous
    corp = Corpus.from_arrays(feats, want.true_lengths, want.glosses, want.signers, want.noises)
    assert corp.features is not feats and corp.features.flags.c_contiguous
    _assert_identical(corp, want)
    save_corpus(corp, tmp_path / "c.npz")
    _assert_identical(load_corpus(tmp_path / "c.npz"), want)


def test_a_corpus_round_trips_jsonl_npz_jsonl_byte_for_byte(tmp_path):
    corp = random_corpus(np.random.default_rng(9), m=6, p=7, d=N_FEATURES)
    config = {"command": "test", "seed": 3}
    save_corpus(corp, tmp_path / "a.jsonl", config=config)
    save_corpus(load_corpus(_without_companion(tmp_path / "a.jsonl")), tmp_path / "b.npz",
                config=config)
    save_corpus(load_corpus(tmp_path / "b.npz"), tmp_path / "c.jsonl", config=config)
    assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    # two saves of one corpus write the same bytes, companions included
    assert (tmp_path / "c.jsonl.npz").read_bytes() == (tmp_path / "a.jsonl.npz").read_bytes()
    save_corpus(corp, tmp_path / "d.npz", config=config)
    assert (tmp_path / "d.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    assert not (tmp_path / "b.npz.npz").exists()  # an .npz gets no companion
    # numpy reads the binary corpus's arrays
    with np.load(tmp_path / "b.npz", allow_pickle=False) as npz:
        np.testing.assert_array_equal(npz["features"], corp.features)
        np.testing.assert_array_equal(npz["true_lengths"], corp.true_lengths)


def test_a_jsonl_changed_after_its_save_loads_as_without_a_companion(tmp_path):
    feats = np.zeros((3, 3, 2))
    feats[:, :2] = [[1.5, -2.0], [0.25, 3.0]]
    feats[2, 1] = 0.0
    path, plain = tmp_path / "c.jsonl", tmp_path / "plain.jsonl"
    save_corpus(Corpus.from_arrays(feats, [2, 2, 1], ["a", "b", "c"], ["s"] * 3,
                                   ["none"] * 3), path, config={"seed": 1})
    original, companion = path.read_bytes(), (tmp_path / "c.jsonl.npz").read_bytes()
    variants = [original[:-1], original + b"\n"]
    for at, byte in enumerate(original):
        for value in (byte ^ 1, ord("9") if byte != ord("9") else ord("1")):
            variants.append(original[:at] + bytes([value]) + original[at + 1:])
    loaded = 0
    for text in variants:
        path.write_bytes(text)
        plain.write_bytes(text)
        outcome = _outcome(path)
        assert outcome == _outcome(plain)
        loaded += isinstance(outcome, list)
    assert (tmp_path / "c.jsonl.npz").read_bytes() == companion
    assert 0 < loaded < len(variants)


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


def _members(path):
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _zip(members):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buffer.getvalue()


def _with(**changes):
    """Rewrite a binary corpus's members: a name maps to new bytes, or None
    to drop it."""
    def spoil(members):
        members = dict(members)
        for name, data in changes.items():
            name = name.replace("_npy", ".npy").replace("_json", ".json")
            if data is None:
                del members[name]
            else:
                members[name] = data
        return _zip(members)
    return spoil


def _flip_last_feature_byte(members):
    data = bytearray(_zip(members))
    data[bytes(data).index(members["features.npy"]) + len(members["features.npy"]) - 1] ^= 1
    return bytes(data)


def _npy_version_3(array):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=(3, 0))
    return buffer.getvalue()


def _features_cut_short(members):
    """features.npy 8 bytes shorter than the size the zip's central directory
    states, under the CRC of the bytes that are there: zipfile reads it to
    its end without an error, so only the load's own read sees it short."""
    npy = members["features.npy"]
    data = bytearray(_zip(dict(members, **{"features.npy": npy[:-8]})))
    entry = bytes(data).rindex(b"features.npy") - 46  # the central directory entry
    struct.pack_into("<I", data, entry + 24, len(npy))  # its uncompressed size
    return bytes(data)


_FEATURES_2 = np.zeros((2, 4, 3))
_FEATURES_2[:, :2] = 1.0
_BAD_NPZ = {
    "missing-features": _with(features_npy=None),
    "missing-strings": _with(strings_json=None),
    "float32-features": _with(features_npy=_npy(_FEATURES_2.astype(np.float32))),
    "big-endian-features": _with(features_npy=_npy(_FEATURES_2.astype(">f8"))),
    "2-d-features": _with(features_npy=_npy(_FEATURES_2.reshape(2, 12))),
    "features-of-other-p": _with(features_npy=_npy(np.zeros((2, 5, 3)))),
    "fortran-features": _with(features_npy=_npy(np.asfortranarray(_FEATURES_2))),
    "short-data": _with(features_npy=_npy(_FEATURES_2)[:-8]),
    "pickled-object-lengths": _with(true_lengths_npy=_npy(np.array([2, 2], dtype=object))),
    "lengths-of-other-m": _with(true_lengths_npy=_npy(np.array([2, 2, 2]))),
    "strings-not-lists": _with(strings_json=b'{"glosses": "ab"}'),
    "strings-not-an-object": _with(strings_json=b'["a", "b"]'),
    "gloss-not-a-string": _with(strings_json=json.dumps(
        {"glosses": ["a", 5], "signers": ["s", "s"], "noises": ["none", "none"]}).encode()),
    "foreign-header": _with(header_json=b'{"format": "other"}'),
    "truncated-zip": lambda members: _zip(members)[:-40],
    "half-a-zip": lambda members: _zip(members)[:len(_zip(members)) // 2],
    "flipped-feature-byte": _flip_last_feature_byte,
    "not-a-zip": lambda members: b'{"format": "mh-corpus"}\n',
    "empty": lambda members: b"",
    "npy-version-3": _with(features_npy=_npy_version_3(_FEATURES_2)),
    "features-cut-short": _features_cut_short,
}


@pytest.mark.parametrize("spoil", sorted(_BAD_NPZ))
def test_a_bad_npz_raises_and_a_bad_companion_is_a_silent_miss(tmp_path, spoil):
    corp = Corpus.from_arrays(_FEATURES_2, [2, 2], ["a", "b"], ["s", "s"], ["none", "none"])
    path = tmp_path / "c.jsonl"
    save_corpus(corp, path)
    companion = tmp_path / "c.jsonl.npz"
    bad = _BAD_NPZ[spoil](_members(companion))  # keeps the digest member when it can
    (tmp_path / "bad.npz").write_bytes(bad)
    with pytest.raises((ParseError, InvariantViolation)):
        load_corpus(tmp_path / "bad.npz")
    companion.write_bytes(bad)
    _assert_identical(load_corpus(path), load_corpus(_without_companion(path)))


@pytest.mark.parametrize("spoil, message", [
    ("npy-version-3", "member features.npy has unsupported .npy version (3, 0)"),
    ("features-cut-short", "member features.npy is truncated"),
])
def test_the_load_checks_npy_members_that_zipfile_reads(tmp_path, spoil, message):
    corp = Corpus.from_arrays(_FEATURES_2, [2, 2], ["a", "b"], ["s", "s"], ["none", "none"])
    save_corpus(corp, tmp_path / "c.npz")
    (tmp_path / "bad.npz").write_bytes(_BAD_NPZ[spoil](_members(tmp_path / "c.npz")))
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_corpus(tmp_path / "bad.npz")


def test_every_damaged_npz_gives_a_corpus_or_an_mh_phone_error(tmp_path):
    save_corpus(_edge_corpus("d-3"), tmp_path / "c.npz")
    raw, path = (tmp_path / "c.npz").read_bytes(), tmp_path / "damaged.npz"
    loaded = 0
    for at, byte in enumerate(raw):
        for damaged in (raw[:at], raw[:at] + bytes([byte ^ 1]) + raw[at + 1:]):
            path.write_bytes(damaged)
            try:
                load_corpus(path)
                loaded += 1
            except (ParseError, InvariantViolation):
                pass
    assert loaded < len(raw)  # only bytes that do not reach the data may change


def test_a_stale_companion_is_not_read(tmp_path):
    path = tmp_path / "c.jsonl"
    old = Corpus.from_arrays(_FEATURES_2, [2, 2], ["a", "b"], ["s", "s"], ["none", "none"])
    save_corpus(old, tmp_path / "old.jsonl")
    save_corpus(_edge_corpus("d-3"), path)
    os.replace(tmp_path / "old.jsonl.npz", tmp_path / "c.jsonl.npz")
    with mock.patch.object(corpus_module, "_decode", wraps=corpus_module._decode) as decode:
        _assert_identical(load_corpus(path), _edge_corpus("d-3"))
    assert decode.called


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_save_to_a_pipe_writes_no_companion_and_reads_nothing_back(tmp_path):
    corp = _edge_corpus("non-ascii")
    save_corpus(corp, tmp_path / "file.jsonl")
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)
    # a save that opened the pipe again to read it back would wait forever
    saver = threading.Thread(target=save_corpus, args=(corp, fifo), daemon=True)
    saver.start()
    received = fifo.read_bytes()
    saver.join(timeout=30)
    assert not saver.is_alive()
    assert received == (tmp_path / "file.jsonl").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["file.jsonl", "file.jsonl.npz", "pipe.jsonl"]


def test_from_arrays_rejects_glosses_and_signers_that_are_not_strings():
    feats = np.ones((2, 1, 2))
    with pytest.raises(InvariantViolation, match="^sign 0: gloss must be a string, got int$"):
        Corpus.from_arrays(feats, [1, 1], [5, "b"], ["s", "s"], ["none", "none"])
    with pytest.raises(InvariantViolation,
                       match="^sign 1: signer must be a string, got NoneType$") as err:
        Corpus.from_arrays(feats, [1, 1], ["a", "b"], ["s", None], ["none", "none"])
    assert err.value.sign == 1
    corp = Corpus.from_arrays(feats, [1, 1], np.array(["a", "b"]), ["s", "t"], ["none"] * 2)
    assert corp.glosses.tolist() == ["a", "b"]


def test_signs_and_corpora_reject_a_true_length_that_is_not_an_integer():
    feats = np.ones((1, 2, 3))
    with pytest.raises(InvariantViolation, match="^sign 0: gloss must be a string, got int$"):
        Corpus.from_arrays(feats, [2], [5], [None], ["none"])
    with pytest.raises(InvariantViolation,
                       match="^sign 0: true_length must be an integer, got float$"):
        Corpus.from_arrays(feats, [1.5], ["g"], [""], ["none"])
    with pytest.raises(InvariantViolation,
                       match="^sign 1: true_length must be an integer, got float$"):
        Corpus.from_arrays(np.ones((2, 3, 2)), [3, 2.9], ["a", "b"], ["s", "s"], ["none"] * 2)
    for true in (True, np.bool_(True)):
        with pytest.raises(InvariantViolation,
                           match="^sign 0: true_length must be an integer, got bool$"):
            Corpus.from_arrays(np.ones((2, 3, 2)), [true, 3], ["a", "b"], ["s", "s"], ["none"] * 2)
    assert Corpus.from_arrays(feats, [np.int64(2)], ["g"], [""], ["none"]).true_lengths[0] == 2


_HYPER = Hyperparams().to_dict()
_MODEL_FILES = (
    {"format": "mh-model", "version": 1, "kind": "dbn", "N": 2, "D": 1,
     "pi": [0.5, 0.5], "trans": [[1.0, 0.0], [0.5, 0.5]], "mu": [[0.0], [1.0]],
     "sigma": [0.5], "hyper": _HYPER},
    {"format": "mh-model", "version": 1, "kind": "gmm", "N": 2, "D": 2,
     "weights": [0.25, 0.75], "mu": [[0.0, 1.0], [2.0, 3.0]], "sigma": [0.5, 0.5],
     "hyper": _HYPER, "config": {"command": "train"}},
    {"format": "mh-model", "version": 1, "kind": "gmm-lda", "N": 2, "D": 1, "T": 2,
     "topic_word": [[0.1, 0.9], [0.6, 0.4]], "topic_freq": [0.3, 0.7],
     "doc_topic_prior": 1.0, "word_prior": 2.0, "mu": [[0.0], [1.0]], "sigma": [0.25],
     "hyper": _HYPER},
)
# Compared as JSON text: `in` on the dicts uses ==, and Python has False == 0.0.
_MODEL_TEXTS = {json.dumps(obj, sort_keys=True) for obj in _MODEL_FILES}


@st.composite
def _model_files(draw):
    """A valid model object of each kind with up to three of its own or its
    hyper's keys set to random JSON, dropped or added, or one array entry
    replaced by random JSON or a list of numbers (a ragged row)."""
    obj = json.loads(json.dumps(draw(st.sampled_from(_MODEL_FILES))))
    for _ in range(draw(st.integers(0, 3))):
        target = obj
        if isinstance(obj.get("hyper"), dict) and draw(st.booleans()):
            target = obj["hyper"]
        key = draw(st.sampled_from(sorted(target) + ["T", "weights", "extra"]))
        action, value = draw(st.integers(0, 2)), target.get(key)
        if action == 0:
            target.pop(key, None)
        elif action == 1 or not isinstance(value, list) or not value:
            target[key] = draw(_JSON)
        else:
            value[draw(st.integers(0, len(value) - 1))] = draw(
                _JSON | st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=3))
    return obj


@settings(max_examples=300, deadline=None)
@given(_model_files())
def test_load_fuzzed_model_files_give_a_model_or_an_mh_phone_error(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzz-model.json"
    path.write_text(json.dumps(obj))
    try:
        model, hyper, config = load_model(path)
    except MhPhoneError:
        assert json.dumps(obj, sort_keys=True) not in _MODEL_TEXTS  # an unchanged file must load
        return
    assert type(model) in MODEL_KINDS.values()
    assert isinstance(hyper, Hyperparams) and isinstance(config, dict)


def test_load_refuses_a_header_padding_beyond_memory(tmp_path):
    # The child caps its address space, so the outcome does not depend on how
    # the host overcommits memory: a P of 10^12 asks for about 22 TiB.
    path = tmp_path / "huge.jsonl"
    header = {"format": "mh-corpus", "version": 1, "D": 3, "P": 10 ** 12}
    path.write_text(json.dumps(header) + "\n" + json.dumps(_record([[1.0, 0.0, 0.0]])) + "\n")
    child = textwrap.dedent("""
        import resource, sys
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2 << 30
        unlimited = hard == resource.RLIM_INFINITY
        resource.setrlimit(resource.RLIMIT_AS, (cap if unlimited else min(cap, hard), hard))
        from mh_phone.cli import main
        sys.exit(main(["train", "--corpus", sys.argv[1], "--out", sys.argv[2]]))
    """)
    src = os.path.dirname(os.path.dirname(sys.modules["mh_phone"].__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = tmp_path / "m.json"
    done = subprocess.run([sys.executable, "-c", child, str(path), str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("mh-phone: error: line 1: header P=1000000000000 "), \
        done.stderr
    assert not out.exists()


def test_load_names_line_1_when_the_padded_array_cannot_be_allocated(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 0.0, 0.0]])] * 2, p=10 ** 12)
    with mock.patch.object(corpus_module.np, "zeros", side_effect=MemoryError):
        kind, message, line = _load_error(path)
    assert (kind, line) == (InvariantViolation, 1)
    assert message == ("line 1: header P=1000000000000 pads 2 signs of 3 features to more "
                       "frames than fit in memory")


def test_load_record_longer_than_padded_length(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus_file(path, [_record([[1.0, 0.0, 0.0]] * 5)], p=4)
    with pytest.raises(TooLong):
        load_corpus(path)


def test_synth_end_start_gives_all_zero_corpus():
    n, d = 3, 4
    truth = ModelParams(pi=[1.0, 0.0, 0.0], trans=np.full((n, n), 1.0 / n),
                        mu=np.vstack([np.zeros(d), np.ones((n - 1, d))]),
                        sigma=np.full(d, 0.5))
    corp, labels = synth_corpus(truth, 5, seed=0, n_frames=6)
    assert not corp.features.any()
    assert np.array_equal(labels[:, 0], np.zeros(5, dtype=int))
    assert list(corp.true_lengths) == [1] * 5


def test_synth_same_seed_identical():
    truth = make_truth_params(4, 6, seed=2)
    a, la = synth_corpus(truth, 12, seed=77)
    b, lb = synth_corpus(truth, 12, seed=77)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(la, lb)
    assert a.glosses.tolist() == b.glosses.tolist()


def test_synth_noisy_end_token_keeps_full_length():
    truth = make_truth_params(3, 5, seed=1)
    corp, _ = synth_corpus(truth, 8, seed=3, exact_end_token=False, n_frames=10)
    assert list(corp.true_lengths) == [10] * 8
    assert corp.features.any(axis=2).all()


def test_synth_exact_end_token_zero_suffix():
    truth = make_truth_params(4, 6, seed=7, end_prob=0.3)
    corp, labels = synth_corpus(truth, 60, seed=8, n_frames=12)
    entered = np.cumsum(labels == 0, axis=1) > 0
    for i, (features, length) in enumerate(zip(corp.features, corp.true_lengths)):
        assert not features[length:].any()
        if entered[i].any():
            assert length == max(1, int(np.argmax(entered[i])))
        else:
            assert length == 12


def test_synth_state_frequencies_match_chain_power_oracle():
    # oracle: expected per-sign state counts over P frames are sum_i pi @ T^i
    truth = make_truth_params(5, 6, seed=4, end_prob=0.1)
    m, p = 500, 25
    _, labels = synth_corpus(truth, m, seed=10, n_frames=p)
    expected = np.zeros(truth.n_states)
    occ = truth.pi.copy()
    for _ in range(p):
        expected += occ
        occ = occ @ truth.trans
    per_sign = np.stack([(labels == j).sum(axis=1)
                         for j in range(truth.n_states)], axis=1).astype(float)
    mean = per_sign.mean(axis=0)
    se = per_sign.std(axis=0, ddof=1) / np.sqrt(m)
    assert np.all(np.abs(mean - expected) <= 3.0 * se + 1e-12)


def test_synth_dims_follow_truth_and_request():
    truth = make_truth_params(3, 8, seed=0)
    corp, labels = synth_corpus(truth, 4, seed=1, n_frames=9)
    assert corp.dims == (4, 9, 8)
    assert labels.shape == (4, 9) and labels.dtype == np.int64
    with pytest.raises(InvariantViolation):
        synth_corpus(truth, 0, seed=1)

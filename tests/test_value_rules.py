"""One rule per scalar read from outside (``name_core.VALUE_RULES``).

Every path that takes a hyperparameter, seed, tokenizer or pairing value
(the trainers, ``build_dataset`` and ``split_dataset``, ``TokenizerConfig``
and ``PairingConfig``, ``run_cells`` and grid configs, ``gendec train``
flags and model-file loaders) asks ``check_values``, so a value is accepted
or refused with the same words everywhere.
"""

import ast
import inspect
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gendec.evaluate as evaluate
import gendec.vectorize as vectorize
from gendec.cli import main
from gendec.corpus import (
    PairingConfig, PairingMode, SplitRatios, build_dataset, split_dataset,
)
from gendec.errors import ConfigError, SchemaError
from gendec.evaluate import Cell, ExperimentGrid, run_cells
from gendec.model_io import ModelFile, load_model, save_model
from gendec.models import MODEL_KINDS, ModelKind, predict_with_proba
from gendec.name_core import (
    InputVariant, NamePart, VALUE_RULES, check_keys, check_values, part_text, read_json,
    write_corpus_csv,
)
from gendec.vectorize import (
    TokenizerConfig, TokenizerMode, Weighting, fit_vocabulary, transform,
)
from tests.conftest import make_raw_inventories

RECORDS = build_dataset(*make_raw_inventories(), seed=1)
TRAIN, _, TEST = split_dataset(RECORDS, SplitRatios(0.6, 0.2, 0.2), seed=1)
TEXTS = [part_text(r.romaji, NamePart.FULL) for r in TRAIN]
LABELS = [r.gender for r in TRAIN]
VOCAB = fit_vocabulary(TEXTS, TokenizerConfig(), Weighting.COUNT)
X = transform(TEXTS, VOCAB, Weighting.COUNT)


def _defaults(kind: ModelKind) -> dict:
    """Each keyword of the kind's trainer, ``seed`` included, and its default."""
    parameters = inspect.signature(MODEL_KINDS[kind].train).parameters
    return {name: p.default for name, p in parameters.items() if name not in ("X", "y")}


def test_every_default_has_a_rule_it_passes():
    for kind in MODEL_KINDS:
        assert set(_defaults(kind)) <= set(VALUE_RULES), kind
        check_values(**_defaults(kind))


def _number(low, high):
    return st.one_of(st.floats(low, high), st.integers(math.ceil(low), int(high)),
                     st.floats(low, high).map(np.float64))


# Values inside each rule, bounded so that training stays quick and finite.
ACCEPTED = {
    "alpha": _number(1e-3, 10.0),
    "learning_rate": _number(1e-3, 2.0),
    "lam": _number(1e-3, 10.0),
    "l2": st.one_of(st.just(0), _number(0.0, 1.0)),
    "epochs": st.integers(1, 4),
    "n_trees": st.integers(1, 3),
    "min_samples_leaf": st.integers(1, 5),
    "max_depth": st.none() | st.integers(1, 6),
    "features_per_split": st.none() | st.integers(1, X.matrix.shape[1]),
    "bootstrap": st.booleans(),
    "seed": st.integers(0, 2 ** 70),
}


def _model_file(model, **kwargs) -> ModelFile:
    return ModelFile(model, Weighting.COUNT, NamePart.FULL, InputVariant.ORIGINAL, VOCAB,
                     None, {}, **kwargs)


def _save_load_save(model, directory: Path):
    """The bytes of ``model``'s file, the model loaded from it, and the bytes
    of that loaded model's file."""
    save_model(directory / "a.json", _model_file(model))
    loaded = load_model(directory / "a.json").model
    save_model(directory / "b.json", _model_file(loaded))
    return (directory / "a.json").read_bytes(), loaded, (directory / "b.json").read_bytes()


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_accepted_values_train_save_load_and_predict_identically(kind, data):
    """A model trained with values its rules accept, integers given for
    numbers included, saves, loads and saves again to the same bytes."""
    spec = MODEL_KINDS[kind]
    params = {name: data.draw(ACCEPTED[name], label=name) for name in _defaults(kind)}
    check_values(**params)
    model = spec.train(X, LABELS, **params)
    with tempfile.TemporaryDirectory() as tmp:
        first, loaded, second = _save_load_save(model, Path(tmp))
    assert second == first
    assert spec.to_params(loaded) == spec.to_params(model)
    labels, proba = predict_with_proba(model, X)
    loaded_labels, loaded_proba = predict_with_proba(loaded, X)
    assert loaded_labels == labels
    assert (proba is None) == (loaded_proba is None)
    assert proba is None or np.array_equal(proba, loaded_proba)


REFUSED = [
    *(("nb", "alpha", v) for v in (True, 0, -1.0, math.nan, math.inf, 10 ** 400, "1",
                                   np.float32(1.0))),
    *(("lr", "learning_rate", v) for v in (True, 0.0, -1.0, 10 ** 400)),
    *(("lr", "l2", v) for v in (-1e-9, math.nan, True, None)),
    *(("lr", "epochs", v) for v in (0, 2.5, np.int64(2), True)),
    *(("svm", "lam", v) for v in (True, 0, math.inf, 10 ** 400)),
    *(("svm", "epochs", v) for v in (0, np.int64(2))),
    *(("svm", "seed", v) for v in (-1, 2.5, math.nan, None, True, np.int64(3))),
    *(("dt", "max_depth", v) for v in (0, 1.0, False)),
    *(("dt", "min_samples_leaf", v) for v in (0, None)),
    *(("rf", "n_trees", v) for v in (0, np.int64(3))),
    *(("rf", "features_per_split", v) for v in (0, 1.5)),
    *(("rf", "bootstrap", v) for v in ("no", 0, 1.0, None)),
    *(("rf", "seed", v) for v in (-1, None, True, np.int64(3))),
]


def _expected(name, value) -> str:
    return f"{name} must be {VALUE_RULES[name][1]}, got {value!r}"


@pytest.mark.parametrize("kind, name, value", REFUSED,
                         ids=[f"{k}-{n}-{v!r}"[:40] for k, n, v in REFUSED])
def test_refused_value_gets_one_error_everywhere(kind, name, value, tmp_path,
                                                 monkeypatch):
    """The trainer, ``run_cells`` and ``gendec grid`` refuse the value with
    the same ConfigError, before any cell trains or any report is written."""
    kind = ModelKind(kind)
    with pytest.raises(ConfigError) as trainer:
        MODEL_KINDS[kind].train(X, LABELS, **{name: value})
    assert str(trainer.value) == _expected(name, value)

    cell = Cell(kind, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
    config = ({"seed": value} if name == "seed"
              else {"hyperparameters": {kind.value: {name: value}}})
    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "train_cell_model", None)  # must not be reached
        with pytest.raises(ConfigError) as grid:
            run_cells([cell], TRAIN, TEST, **config)
    assert str(grid.value) == str(trainer.value)

    if type(value) not in (bool, int, float, str, type(None)):
        return  # a numpy scalar has no JSON form
    write_corpus_csv(tmp_path / "train.csv", TRAIN)
    write_corpus_csv(tmp_path / "test.csv", TEST)
    (tmp_path / "grid.json").write_text(json.dumps({
        "train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv"),
        "cells": [cell.to_json_dict()], **config}))
    result = CliRunner().invoke(main, [
        "grid", "--config", str(tmp_path / "grid.json"),
        "--report-json", str(tmp_path / "r.json"), "--report-csv", str(tmp_path / "r.csv")])
    assert (result.exit_code, result.output) == (2, f"error: {trainer.value}\n")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


FLAG_CASES = [
    ("nb", "--alpha", "0", 0.0), ("nb", "--alpha", "nan", math.nan),
    ("lr", "--learning-rate", "-1", -1.0), ("lr", "--l2", "-1e-9", -1e-9),
    ("lr", "--epochs", "0", 0), ("svm", "--lam", "inf", math.inf),
    ("svm", "--lam", "1e400", math.inf), ("dt", "--max-depth", "0", 0),
    ("dt", "--min-samples-leaf", "0", 0), ("rf", "--n-trees", "0", 0),
    ("rf", "--features-per-split", "0", 0),
]


@pytest.mark.parametrize("kind, flag, text, value", FLAG_CASES,
                         ids=[f"{k}{f}={t}" for k, f, t, _ in FLAG_CASES])
def test_train_flag_gets_the_trainers_error(kind, flag, text, value, tmp_path):
    name = flag[2:].replace("-", "_")
    write_corpus_csv(tmp_path / "train.csv", TRAIN)
    out = tmp_path / "m.json"
    result = CliRunner().invoke(main, [
        "train", "--model", kind, "--features", "count", flag, text,
        "--train", str(tmp_path / "train.csv"), "--out", str(out)])
    with pytest.raises(ConfigError) as trainer:
        MODEL_KINDS[ModelKind(kind)].train(X, LABELS, **{name: value})
    assert str(trainer.value) == _expected(name, value)
    assert (result.exit_code, result.output) == (2, f"error: {trainer.value}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [None, True, -1, 2.5, np.int64(1)], ids=repr)
def test_corpus_functions_refuse_a_bad_seed(seed):
    """A missing seed would draw OS entropy, and True would be read as 1."""
    firsts, lasts = make_raw_inventories()
    with pytest.raises(ConfigError, match="^seed must be an integer >= 0"):
        build_dataset(firsts, lasts, seed=seed)
    with pytest.raises(ConfigError, match="^seed must be an integer >= 0"):
        split_dataset(RECORDS, SplitRatios(0.7, 0.2, 0.1), seed=seed)


@pytest.mark.parametrize("stratify", ["no", 0, 1, None], ids=repr)
def test_split_dataset_refuses_a_bad_stratify(stratify):
    """A truthy string such as "no" used to stratify the split."""
    with pytest.raises(ConfigError) as refused:
        split_dataset(RECORDS, SplitRatios(0.7, 0.2, 0.1), seed=1, stratify=stratify)
    assert str(refused.value) == _expected("stratify", stratify)


@pytest.mark.parametrize("kind, params", [("nb", {"alpha": 2}), ("svm", {"lam": 1}),
                                          ("lr", {"learning_rate": 1, "l2": 0})])
def test_integer_numbers_keep_their_bytes_through_a_load(kind, params, tmp_path):
    """A loader keeps each value as the file holds it: no ``2`` -> ``2.0``."""
    model = MODEL_KINDS[ModelKind(kind)].train(X, LABELS, **params)
    first, loaded, second = _save_load_save(model, tmp_path)
    assert second == first
    assert all(type(getattr(loaded, name)) is int for name in params)


@pytest.mark.parametrize("name, value", [
    ("ngram_min", True), ("ngram_min", 1.5), ("ngram_max", np.int64(3)), ("ngram_min", 0),
    ("ngram_max", 9)], ids=repr)
def test_tokenizer_config_refuses_values_off_the_table(name, value):
    with pytest.raises(ConfigError) as refused:
        TokenizerConfig(TokenizerMode.CHAR_NGRAM, **{"ngram_min": 2, "ngram_max": 2,
                                                     name: value})
    assert str(refused.value) == _expected(name, value)


@pytest.mark.parametrize("mode", list(PairingMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("k", [True, 1.0, 0, np.int64(2)], ids=repr)
def test_pairing_config_refuses_k_off_the_table(mode, k):
    with pytest.raises(ConfigError) as refused:
        PairingConfig(mode, k=k)
    assert str(refused.value) == _expected("k", k)


def test_model_file_kind_is_the_models_kind():
    model = MODEL_KINDS[ModelKind.NB].train(X, LABELS)
    model_file = _model_file(model)
    assert model_file.kind is model_file.cell.model is ModelKind.NB
    assert model_file.to_json_dict()["model_kind"] == "nb"
    for kind in (ModelKind.NB, ModelKind.SVM):  # derived, not an argument
        with pytest.raises(TypeError, match="'kind'"):
            _model_file(model, kind=kind)


@pytest.mark.parametrize("name", ["weighting", "part", "variant"])
def test_model_file_fields_must_be_enum_members(name):
    """A plain string would save as a raw AttributeError, not a file."""
    model = MODEL_KINDS[ModelKind.NB].train(X, LABELS)
    members = {"weighting": Weighting.COUNT, "part": NamePart.FULL,
               "variant": InputVariant.ORIGINAL}
    value = members[name].value
    with pytest.raises(ConfigError, match=f"^cell {name} must be a "
                                          f"{type(members[name]).__name__}, got {value!r}$"):
        ModelFile(model, vocabulary=VOCAB, reading_dictionary=None, metadata={},
                  **{**members, name: value})


# A model-file value that breaks its rule: (kind, section, key, value).
BAD_FILE_VALUES = [
    ("svm", "parameters", "lam", 0),
    ("nb", "tokenizer", "ngram_min", 0),
    ("lr", "tokenizer", "ngram_max", 9),
    ("dt", "tokenizer", "ngram_min", True),
    ("lr", "parameters", "bias", "0.5"),
    ("svm", "parameters", "bias", math.nan),
    ("nb", "parameters", "alpha", 0),
    ("rf", "parameters", "bootstrap", "true"),
]


def _corrupt_file(kind: str, section: str, changes: dict, directory: Path) -> Path:
    params = {"n_trees": 2} if kind == "rf" else {}
    doc = _model_file(MODEL_KINDS[ModelKind(kind)].train(X, LABELS, **params)).to_json_dict()
    doc[section].update(changes)
    (directory / "m.json").write_text(json.dumps(doc))
    return directory / "m.json"


def _predict_error(path: Path) -> tuple[int, str]:
    result = CliRunner().invoke(main, ["predict", "--model-file", str(path),
                                       "--name", "Tamai Kazuyoshi"])
    return result.exit_code, result.output


@pytest.mark.parametrize("kind, section, key, value", BAD_FILE_VALUES,
                         ids=[f"{k}-{key}-{v!r}" for k, _, key, v in BAD_FILE_VALUES])
def test_bad_model_file_value_gets_the_tables_wording(kind, section, key, value, tmp_path):
    """The error names the file's key and its rule, and is a SchemaError."""
    path = _corrupt_file(kind, section, {key: value}, tmp_path)
    with pytest.raises(SchemaError) as refused:
        load_model(path)
    assert str(refused.value) == f"malformed model file: ConfigError: {_expected(key, value)}"
    assert _predict_error(path) == (2, f"error: {refused.value}\n")


def test_model_file_tokenizer_out_of_order_is_malformed(tmp_path):
    path = _corrupt_file("nb", "tokenizer", {"mode": "char_ngram", "ngram_min": 3,
                                             "ngram_max": 2}, tmp_path)
    with pytest.raises(SchemaError, match="^malformed model file: ConfigError: ngram_min "
                                          "must be <= ngram_max, got"):
        load_model(path)
    assert _predict_error(path)[0] == 2


def test_each_check_raises_one_type():
    """A rule or key check raises ConfigError and ``read_json`` SchemaError;
    no caller picks the type."""
    for check in (check_values, check_keys, read_json):
        assert "error" not in inspect.signature(check).parameters, check.__name__
    assert not hasattr(vectorize, "check_vocabulary")
    assert not hasattr(vectorize, "_check_ngram_range")


GRID_TOKENIZERS = [
    {"mode": "char_ngram", "ngram_min": 0, "ngram_max": 2},
    {"mode": "char_ngram", "ngram_min": 3, "ngram_max": 2},
    {"mode": "char_ngram", "ngram_min": 1, "ngram_max": 9},
    {"mode": "word", "ngram_min": True, "ngram_max": 1},
    {"mode": "word", "ngram_min": 1},
    {"mode": "word", "ngram_min": 1, "ngram_max": 1, "ngram_mx": 2},
]


@pytest.mark.parametrize("doc", GRID_TOKENIZERS, ids=lambda doc: json.dumps(doc))
def test_grid_tokenizer_gets_the_constructors_error(doc, tmp_path):
    """A grid config's tokenizer is refused in the words ``TokenizerConfig``
    uses, with no ``malformed grid config`` prefix, in the library and the CLI."""
    with pytest.raises(ConfigError) as constructor:
        if {"ngram_min", "ngram_max"} == set(doc) - {"mode"}:
            TokenizerConfig(TokenizerMode(doc["mode"]), doc["ngram_min"], doc["ngram_max"])
        else:
            check_keys(doc, ("mode", "ngram_min", "ngram_max"))
    write_corpus_csv(tmp_path / "train.csv", TRAIN)
    write_corpus_csv(tmp_path / "test.csv", TEST)
    config = {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv"),
              "tokenizer": doc}
    with pytest.raises(ConfigError) as grid:
        ExperimentGrid.from_json_dict(config)
    assert str(grid.value) == str(constructor.value)
    (tmp_path / "grid.json").write_text(json.dumps(config))
    result = CliRunner().invoke(main, [
        "grid", "--config", str(tmp_path / "grid.json"),
        "--report-json", str(tmp_path / "r.json"), "--report-csv", str(tmp_path / "r.csv")])
    assert (result.exit_code, result.output) == (2, f"error: {constructor.value}\n")


@pytest.mark.parametrize("content", [b"{not json", b"[" * 100_000, b"{\"seed\": \xff}"],
                         ids=["not-json", "nested-deep", "not-utf8"])
def test_unreadable_grid_config_is_a_schema_error(content, tmp_path):
    path = tmp_path / "grid.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not (JSON|UTF-8): "):
        ExperimentGrid.load(path)


def test_every_rule_is_named_by_a_check():
    """Each ``VALUE_RULES`` key is a keyword of some ``check_values(...)`` call
    under ``src/``, so a rule cannot outlive the value it was written for."""
    src = Path(__file__).resolve().parents[1] / "src"
    named = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "check_values"):
                named.update(keyword.arg for keyword in node.keywords if keyword.arg)
    assert sorted(set(VALUE_RULES) - named) == []

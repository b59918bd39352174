import json

import numpy as np
import pytest

from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import ConfigError, SchemaError
from gendec.evaluate import extract_texts, train_cell_model
from gendec.model_io import ModelFile, load_model, save_model
from gendec.models import (
    ModelKind, predict, predict_proba, supports_proba, train_naive_bayes,
)
from gendec.name_core import Gender, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import (
    TokenizerConfig, Vocabulary, Weighting, fit_vocabulary, transform,
)

ALL_KINDS = list(ModelKind)


def _fit_cell(records, kind, weighting, variant=InputVariant.ORIGINAL, seed=42):
    reading = None
    if variant is InputVariant.CONVERTED:
        reading, _ = build_reading_dictionary(records)
    texts, _ = extract_texts(records, NamePart.FULL, variant, reading)
    labels = [r.gender for r in records]
    vocab = fit_vocabulary(texts, TokenizerConfig(), weighting)
    X = transform(texts, vocab, weighting)
    hyper = {"rf": {"n_trees": 4}, "svm": {"epochs": 4}, "lr": {"epochs": 20}}
    model = train_cell_model(kind, X, labels, seed, hyper.get(kind.value))
    return ModelFile(
        model=model,
        weighting=weighting,
        part=NamePart.FULL,
        variant=variant,
        vocabulary=vocab,
        reading_dictionary=reading,
        metadata={"train_rows": len(records), "seed": seed,
                  "created_at": "1970-01-01T00:00:00Z", "corpus_sha256": "0" * 64},
    ), X


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_preserves_predictions(tmp_path, fixture_records, kind):
    model_file, X = _fit_cell(fixture_records, kind, Weighting.COUNT)
    path = tmp_path / "model.json"
    save_model(path, model_file)
    loaded = load_model(path)
    assert predict(loaded.model, X) == predict(model_file.model, X)
    if supports_proba(model_file.model):
        assert np.array_equal(
            predict_proba(loaded.model, X), predict_proba(model_file.model, X)
        )


def test_hand_built_vocabulary_predicts_the_same_after_a_round_trip(tmp_path):
    """A vocabulary's column index follows its token order, so it cannot
    disagree with the order the model file stores and the loader reads."""
    with pytest.raises(TypeError, match="token_to_index"):
        Vocabulary(tokens=("sato", "yuki"), token_to_index={"sato": 1, "yuki": 0},
                   tokenizer=TokenizerConfig())
    vocab = Vocabulary(tokens=("sato", "yuki"), tokenizer=TokenizerConfig())
    assert vocab.token_to_index == {"sato": 0, "yuki": 1}
    model = train_naive_bayes(transform(["sato", "yuki", "sato", "yuki"], vocab),
                              [Gender.MALE, Gender.FEMALE, Gender.MALE, Gender.FEMALE])
    path = tmp_path / "nb.json"
    save_model(path, ModelFile(model, Weighting.COUNT, NamePart.FIRST,
                               InputVariant.ORIGINAL, vocab, None, {}))
    loaded = load_model(path)
    in_memory = predict_proba(model, transform(["sato"], vocab))
    assert in_memory[0, 1] == pytest.approx(0.75)
    assert np.array_equal(predict_proba(loaded.model, transform(["sato"], loaded.vocabulary)),
                          in_memory)


@pytest.mark.parametrize("tokens,idf", [
    (("yuki", "sato"), None), (("sato", "sato"), None), (["sato", 1], None),
    ("sato", None), (("sato", "yuki"), np.ones(3)), (("sato", "yuki"), [1.0, 1.0]),
    (("sato", "yuki"), np.array([1.0, np.inf])), (("sato", "yuki"), np.ones(2, np.float32)),
], ids=["descending", "repeated", "not-a-string", "a-string", "idf-too-long", "idf-list",
        "idf-infinite", "idf-float32"])
def test_vocabulary_a_model_file_could_not_hold_is_refused(tokens, idf):
    """A vocabulary that would save to a file ``load_model`` refuses, or that
    would not load back as itself, is refused when it is built."""
    with pytest.raises(ConfigError, match="vocabulary (tokens|idf) must be"):
        Vocabulary(tokens=tokens, tokenizer=TokenizerConfig(), idf=idf)


def test_metadata_must_be_a_json_object(tmp_path, fixture_records):
    model_file, _ = _fit_cell(fixture_records, ModelKind.NB, Weighting.COUNT)
    path = tmp_path / "model.json"
    save_model(path, model_file)
    doc = json.loads(path.read_text())
    doc["metadata"] = [["seed", 1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="malformed model file.*metadata must be"):
        load_model(path)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_save_load_save_byte_identical(tmp_path, fixture_records, kind):
    model_file, _ = _fit_cell(fixture_records, kind, Weighting.TFIDF)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(first, model_file)
    save_model(second, load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_converted_model_embeds_dictionary(tmp_path, fixture_records):
    model_file, _ = _fit_cell(
        fixture_records, ModelKind.NB, Weighting.COUNT, InputVariant.CONVERTED
    )
    path = tmp_path / "model.json"
    save_model(path, model_file)
    loaded = load_model(path)
    assert loaded.reading_dictionary == model_file.reading_dictionary
    assert loaded.reading_dictionary.family  # non-empty


def test_unknown_schema_version_rejected(tmp_path, fixture_records):
    model_file, _ = _fit_cell(fixture_records, ModelKind.NB, Weighting.COUNT)
    path = tmp_path / "model.json"
    save_model(path, model_file)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(path)


def test_cell_is_recoverable(tmp_path, fixture_records):
    model_file, _ = _fit_cell(fixture_records, ModelKind.SVM, Weighting.COUNT)
    path = tmp_path / "model.json"
    save_model(path, model_file)
    loaded = load_model(path)
    assert loaded.cell == model_file.cell
    assert loaded.metadata["seed"] == 42


def test_retraining_same_seed_byte_identical(tmp_path, synthetic_corpus):
    train, _val, _test = split_dataset(
        synthetic_corpus, SplitRatios(0.7, 0.2, 0.1), seed=42
    )
    paths = []
    for name in ("a.json", "b.json"):
        model_file, _ = _fit_cell(train, ModelKind.RF, Weighting.TFIDF, seed=7)
        path = tmp_path / name
        save_model(path, model_file)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

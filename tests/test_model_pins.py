"""Pinned model-file bytes: a refactor of the model layer must not move them.

Every kind is trained on the training split of the synthetic corpus with
a fixed seed, for both encodings, plus one converted-variant cell, and
the sha256 of each saved file is compared with the recorded value.
"""

import hashlib
import json

import numpy as np
import pytest

from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import UnsupportedModelError
from gendec.evaluate import extract_texts, train_cell_model
from gendec.model_io import ModelFile, load_model, save_model
from gendec.models import ModelKind, predict, predict_proba, supports_proba
from gendec.name_core import GENDERS, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import CSR, TokenizerConfig, Weighting, fit_vocabulary, transform

HYPER = {"rf": {"n_trees": 4}, "svm": {"epochs": 4}, "lr": {"epochs": 20}}
SEED = 7

PINNED = {
    "nb/count/original": "bd6009ed0eb24542ce7ac6aea887731a9674da5ca4cd8d0a01c251aa28e1c881",
    "nb/tfidf/original": "f15a3adb43ce0b38d3c1f34fc02536b8d18b15634366429312bc6287ab9e86bf",
    "lr/count/original": "f485e2f92b5d44f489237a2984d73f592dab664d53b7a4bdd48b617aba13d2f1",
    "lr/tfidf/original": "cf887d3a835fe0fbb9477b837bb5c0809e6dd6c1d64ab37f2b0dd04eced9ab76",
    "dt/count/original": "4cbb98229a2341ae192545675689f576c87786e5ff1294635d0cc2295fff398b",
    "dt/tfidf/original": "329417265872032758bd99a072e5fe47ea4b4cf4f6c3b1254a729665ca59915e",
    "rf/count/original": "1f1d2dbc798bc5b10cead6d245c7de0ea4943274044372fc247992f8eac5c1d1",
    "rf/tfidf/original": "c29ead2cb8f197fcedd80078115988d6b4165e7c51060e64e0d251da568820b6",
    "svm/count/original": "558cfc02a74ead5ca92556768a9808ce811ee4e712953687bf58701a103e2384",
    "svm/tfidf/original": "aa1e066138a859916c17e9d1706aa5ac3bec12958e8a40a43192754ddc617591",
    "rf/tfidf/converted": "b5b2b96e431ec74969de06639e801731d1b5fef0efd79cc4ee9b79956e86b2a8",
}


@pytest.fixture(scope="module")
def train_records(synthetic_corpus):
    train, _val, _test = split_dataset(synthetic_corpus, SplitRatios(0.7, 0.2, 0.1), seed=42)
    return train


def _fit(records, kind, weighting, variant):
    reading = None
    if variant is InputVariant.CONVERTED:
        reading, _ = build_reading_dictionary(records)
    texts, _ = extract_texts(records, NamePart.FULL, variant, reading)
    vocab = fit_vocabulary(texts, TokenizerConfig(), weighting)
    X = transform(texts, vocab, weighting)
    model = train_cell_model(kind, X, [r.gender for r in records], SEED,
                             HYPER.get(kind.value))
    model_file = ModelFile(
        model=model, weighting=weighting, part=NamePart.FULL,
        variant=variant, vocabulary=vocab, reading_dictionary=reading,
        metadata={"train_rows": len(records), "seed": SEED,
                  "created_at": "1970-01-01T00:00:00Z", "corpus_sha256": "0" * 64},
    )
    return model_file, X


@pytest.mark.parametrize("label", list(PINNED))
def test_model_file_bytes_pinned(tmp_path, train_records, label):
    kind, weighting, variant = label.split("/")
    model_file, _ = _fit(train_records, ModelKind(kind), Weighting(weighting),
                         InputVariant(variant))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(first, model_file)
    save_model(second, load_model(first))
    assert second.read_bytes() == first.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == PINNED[label]


# Keys a schema_version 2 file never holds: each follows from the rest, or,
# for ``lambda``, is now ``lam``.
DERIVED_KEYS = {"right", "n_trees", "tree_streams", "exhaust_on_miss", "single_class",
                "lambda"}


def _keys(doc) -> set:
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    return set()


@pytest.mark.parametrize("label", list(PINNED))
def test_loader_rebuilds_what_the_file_leaves_out(tmp_path, train_records, label):
    """Every loaded tree's six node arrays, ``right`` included, and naive
    Bayes' single-class flag equal the trained model's."""
    kind, weighting, variant = label.split("/")
    model_file, X = _fit(train_records, ModelKind(kind), Weighting(weighting),
                         InputVariant(variant))
    path = tmp_path / "m.json"
    save_model(path, model_file)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    assert not _keys(doc["parameters"]) & DERIVED_KEYS
    assert "schema_version" not in (doc["reading_dictionary"] or {})
    trained, loaded = model_file.model, load_model(path).model
    trees = {"dt": lambda m: [m], "rf": lambda m: m.trees}.get(kind, lambda m: [])
    assert len(trees(loaded)) == len(trees(trained))
    for new, old in zip(trees(loaded), trees(trained)):
        for name in ("feature", "threshold", "left", "right", "count_female", "count_male"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
            assert getattr(new, name).dtype == getattr(old, name).dtype, name
    if kind == "nb":
        assert loaded.single_class is trained.single_class
    assert predict(loaded, X) == predict(trained, X)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_predict_is_proba_argmax_female_first(train_records, kind):
    model_file, X = _fit(train_records, kind, Weighting.TFIDF, InputVariant.ORIGINAL)
    model = model_file.model
    matrix = X.matrix  # its rows, then one all-zero row
    rows = CSR(np.append(matrix.indptr, matrix.indptr[-1]), matrix.indices, matrix.data,
               (matrix.shape[0] + 1, matrix.shape[1]))
    labels = predict(model, rows)
    if not supports_proba(model):
        with pytest.raises(UnsupportedModelError):
            predict_proba(model, rows)
        return
    proba = predict_proba(model, rows)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert labels == [GENDERS[int(p[1] > p[0])] for p in proba]

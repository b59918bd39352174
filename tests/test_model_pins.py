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
    "nb/count/original": "2cb018aab0247ffde5a86a31028f4db0b89be8b1a47a159a1bc97379da19417f",
    "nb/tfidf/original": "f20532d01d3d5456b11491ac945a4307aae3fe0da8cbf9a871449b7d0cdbb8af",
    "lr/count/original": "da1d7b2e43f6b2abe0f4fdcb451c76c6e245eea5ff0c621b0dc5d9cb7b97ad8c",
    "lr/tfidf/original": "a62f08e6bba5feccf6129c353fcb2e87fae7177f7f10cee4f6eafb8b2b51c79c",
    "dt/count/original": "4d6e642e61ab241ee07786ea263c63b7798f1a752212cf65d37a4138c224a43a",
    "dt/tfidf/original": "31ffea69174bec28d39cfc4cf1fbaa9dae4dd2d7b9ce28cbfd6ba20ea1ac1600",
    "rf/count/original": "dedcaa9ef8f0053b4e28887523a257ca1930af1dfced6e19cd48bc43884f0fe5",
    "rf/tfidf/original": "5ef5886121ff62069cba72a659db514c5fc2cf1a599211723613f124698c833b",
    "svm/count/original": "efbcfff3404ebb85e42c504d3a60f703d7bdd0beb0c0b87196951cce328fbdc0",
    "svm/tfidf/original": "e0a205d230fcafb16d8b28cb03bc20ac37aa1167e78576fe201ce16ac53a4c3a",
    "rf/tfidf/converted": "35a3aca80f79faa9185a4aa724318b8f352869afe43de22b3428a6586836d1ff",
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


# Keys a schema_version 3 file never holds: each follows from the rest, or,
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
    assert doc["schema_version"] == 3
    assert not _keys(doc["parameters"]) & DERIVED_KEYS
    assert "schema_version" not in (doc["reading_dictionary"] or {})
    # A reading dictionary entry is [count, romaji], not a list of readings.
    for table in (doc["reading_dictionary"] or {}).values():
        assert all(type(count) is int and romaji.isalpha() for count, romaji in table.values())
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

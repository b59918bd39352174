"""Pinned model-file bytes: a refactor of the model layer must not move them.

Every kind is trained on the training split of the synthetic corpus with
a fixed seed, for both encodings, plus one converted-variant cell, and
the sha256 of each saved file is compared with the recorded value.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import UnsupportedModelError
from gendec.evaluate import extract_texts, train_cell_model
from gendec.model_io import ModelFile, load_model, save_model
from gendec.models import ModelKind, predict, predict_proba, supports_proba
from gendec.name_core import GENDERS, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import TokenizerConfig, Weighting, fit_vocabulary, transform

HYPER = {"rf": {"n_trees": 4}, "svm": {"epochs": 4}, "lr": {"epochs": 20}}
SEED = 7

PINNED = {
    "nb/count/original": "fae9ed96a6ec2488f5a52fbed051350466f39c23342e5a96628e64af220ac7e6",
    "nb/tfidf/original": "326a88d13ecf28b4da22bed948e6d59349a82b34639a37ba9983061f8c219b69",
    "lr/count/original": "5b73eb3eaadc0884de875e534589ee922ecabb4531f550956def2673ac167042",
    "lr/tfidf/original": "80218d7ae32091ddf215490e076f5afc8b5fc64353e26abbbb8776cb5e93e246",
    "dt/count/original": "e47a754575d9e2314bd5c6b08665114c8a1bcff46102e3954806abba3717ecc0",
    "dt/tfidf/original": "367951c1d42337ee988f620264edee9cb018e33ac44786e34b61d59e74b62a93",
    "rf/count/original": "7461e5312934e0726c6b23b09ab4474aef1da70117826f9bedaf525e0f0c5ba8",
    "rf/tfidf/original": "5b2a285761eb6b91317d98bcf12fd6c4136ecc72601e03a326cddbc9db81ad55",
    "svm/count/original": "2ce800493b3ab72ae1743a5207af2b6ff555ba64c11b091b71aeb87466219370",
    "svm/tfidf/original": "cdeabd3a16176d6d38d91336253dfccd8b94cc7cff847b1a62f73f6b6855822a",
    "rf/tfidf/converted": "7df187d92e9a2e56fca4e8d689801e5125fe537bb62feeb73cbbfa9b978ef7f4",
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
        model=model, kind=kind, weighting=weighting, part=NamePart.FULL,
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


@pytest.mark.parametrize("kind", list(ModelKind))
def test_predict_is_proba_argmax_female_first(train_records, kind):
    model_file, X = _fit(train_records, kind, Weighting.TFIDF, InputVariant.ORIGINAL)
    model = model_file.model
    rows = sp.vstack([X.matrix, sp.csr_matrix((1, X.matrix.shape[1]))]).tocsr()
    labels = predict(model, rows)
    if not supports_proba(model):
        with pytest.raises(UnsupportedModelError):
            predict_proba(model, rows)
        return
    proba = predict_proba(model, rows)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert labels == [GENDERS[int(p[1] > p[0])] for p in proba]

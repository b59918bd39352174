"""Pinned model-file bytes: a refactor of the model layer must not move them.

Every kind is trained on the training split of the synthetic corpus with
a fixed seed, for both encodings, plus one converted-variant cell, and
the sha256 of each saved file is compared with the recorded value.
"""

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gendec.cli import main
from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import SchemaError, UnsupportedModelError
from gendec.evaluate import extract_texts, train_cell_model
from gendec.model_io import ModelFile, load_model, save_model
from gendec.models import ModelKind, predict, predict_proba, supports_proba
from gendec.name_core import GENDERS, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import CSR, TokenizerConfig, Weighting, fit_vocabulary, transform

HYPER = {"rf": {"n_trees": 4}, "svm": {"epochs": 4}, "lr": {"epochs": 20}}
SEED = 7

PINNED = {
    "nb/count/original": "bafa5c5b21d2bbf0fb802e388ec71d6c5da8c58272f21d734404936ca2a22abd",
    "nb/tfidf/original": "73d6b56868089dbd0858da1a6e1133cf4b9e2f3745044da461dc8455b3fb544c",
    "lr/count/original": "597056d5ff3d27ee09ad46c79c19b7981cc45a09b4193059a42ac08fae32e5e5",
    "lr/tfidf/original": "06e9be50f3f7c4c7799f891ce906d4ec881c937b735806d06fe325052945d2e4",
    "dt/count/original": "4d96c50be6a6dc2651a1428b49504a393543bdcd0ea537323f9444593224f88e",
    "dt/tfidf/original": "496d7a333faeb0ae6eb6ffcc0d04bf307557c2832d287a145da13c23985d923b",
    "rf/count/original": "bb11911a26135ecc1e02c40539d66caf46bc174be0d83c88b7a630662e4ab3d0",
    "rf/tfidf/original": "6a3e86b42fda1b03bd0cb15cb44b95fa1e386594b17dcbd722b851afbb266153",
    "svm/count/original": "fc59dfcaa13df505c037f8b9a50dfa7e1f10d37dd8dc9aa3f9a2d29a3acd0960",
    "svm/tfidf/original": "24b62ec111163b11b37e4b0a0e38d751393cc3638cd316591c04ff9fbb491791",
    "rf/tfidf/converted": "80d884a9b4b9da1011d63d4dd4f73838913a486e87adcc6df1b2c40182c77386",
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


# Keys a schema_version 4 file never holds: each follows from the rest, or,
# for ``lambda``, is now ``lam``.
DERIVED_KEYS = {"left", "right", "n_trees", "tree_streams", "exhaust_on_miss",
                "single_class", "lambda"}


def _keys(doc) -> set:
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    return set()


@pytest.mark.parametrize("label", list(PINNED))
def test_loader_rebuilds_what_the_file_leaves_out(tmp_path, train_records, label):
    """Every loaded tree's six node arrays, ``left`` and ``right`` and the
    inner nodes' counts included, and naive
    Bayes' single-class flag equal the trained model's."""
    kind, weighting, variant = label.split("/")
    model_file, X = _fit(train_records, ModelKind(kind), Weighting(weighting),
                         InputVariant(variant))
    path = tmp_path / "m.json"
    save_model(path, model_file)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 4
    assert not _keys(doc["parameters"]) & DERIVED_KEYS
    assert "schema_version" not in (doc["reading_dictionary"] or {})
    # A reading dictionary entry is [count, romaji], not a list of readings.
    for table in (doc["reading_dictionary"] or {}).values():
        assert all(type(count) is int and romaji.isalpha() for count, romaji in table.values())
    trained, loaded = model_file.model, load_model(path).model
    trees = {"dt": lambda m: [m], "rf": lambda m: m.trees}.get(kind, lambda m: [])
    assert len(trees(loaded)) == len(trees(trained))
    params = doc["parameters"]
    blocks = [params["nodes"]] if kind == "dt" else params.get("trees", [])
    assert len(blocks) == len(trees(trained))
    for block, tree in zip(blocks, trees(trained)):
        # A threshold per inner node and a count of each label per leaf.
        inner = tree.feature >= 0
        assert len(block["threshold"]) == np.count_nonzero(inner)
        assert len(block["count_female"]) == len(block["count_male"]) == np.count_nonzero(~inner)
    for new, old in zip(trees(loaded), trees(trained)):
        for name in ("feature", "threshold", "count_female", "count_male"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
            assert getattr(new, name).dtype == getattr(old, name).dtype, name
    if kind == "nb":
        assert loaded.single_class is trained.single_class
    assert predict(loaded, X) == predict(trained, X)


class Pairs(list):
    """A JSON object as its (key, value) pairs, so an edit can repeat a key."""


def _text(node) -> str:
    """JSON text as ``save_model`` writes it, keys sorted and no spaces; a
    repeated key is written twice."""
    if isinstance(node, Pairs):
        pairs = sorted(node, key=lambda pair: pair[0])
        return "{" + ",".join(f"{json.dumps(key)}:{_text(value)}" for key, value in pairs) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(_text, node)) + "]"
    return json.dumps(node)


def _slots(container, pattern=()):
    """Every value below a list or object as (pattern, container, index):
    ``pattern`` is the keys down to the value, "*" standing for list indices."""
    for index, item in enumerate(container):
        key, value = item if isinstance(container, Pairs) else ("*", item)
        yield pattern + (key,), container, index
        if isinstance(value, list):  # an object too: Pairs is a list
            yield from _slots(value, pattern + (key,))


def _value(container, index):
    return container[index][1] if isinstance(container, Pairs) else container[index]


def _is_number(value) -> bool:
    return type(value) in (int, float)


# Edits that replace a number: the number, a draw -> the new value.
NUMBER_EDITS = {
    "float": lambda v, draw: v / 2 if type(v) is float else float(v),
    "bool": lambda v, draw: draw(st.booleans()),
    "string": lambda v, draw: str(v),
    "null": lambda v, draw: None,
    "integer": lambda v, draw: int(v) if type(v) is float and math.isfinite(v) else v,
}
# Edits of a list or an object in place: (what they apply to, the edit).
SHAPE_EDITS = {
    "grow": (lambda v: type(v) is list,
             lambda v, draw: v.append(copy.deepcopy(v[-1]) if v else 0)),
    "shrink": (lambda v: type(v) is list and v, lambda v, draw: v.pop()),
    "repeat-key": (lambda v: type(v) is Pairs and v,
                   lambda v, draw: v.insert(0, v[draw(st.integers(0, len(v) - 1))])),
    "drop-key": (lambda v: type(v) is Pairs and v,
                 lambda v, draw: v.pop(draw(st.integers(0, len(v) - 1)))),
    "add-key": (lambda v: type(v) is Pairs, lambda v, draw: v.append(("added", 0))),
}


class PinnedTexts(dict):
    """Each pinned cell's saved text, and a directory for edited copies."""

    def __init__(self, directory):
        super().__init__()
        self.directory = directory

    def __repr__(self) -> str:  # what hypothesis prints for a failing example
        return f"<{len(self)} pinned model files>"


@pytest.fixture(scope="module")
def pinned_texts(tmp_path_factory, train_records):
    texts = PinnedTexts(tmp_path_factory.mktemp("pinned"))
    path = texts.directory / "m.json"
    for label in PINNED:
        kind, weighting, variant = label.split("/")
        model_file, _ = _fit(train_records, ModelKind(kind), Weighting(weighting),
                             InputVariant(variant))
        save_model(path, model_file)
        texts[label] = path.read_text(encoding="utf-8")
        assert _text(json.loads(texts[label], object_pairs_hook=Pairs)) + "\n" == texts[label]
    return texts


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_an_edited_pinned_file_is_refused_or_read_as_written(pinned_texts, data):
    """One edit of a pinned file: a number turned into a float, a bool, a
    string or null, or a finite float into an integer; a list one longer
    or shorter; or an object's key
    repeated, dropped or added.  ``predict`` refuses the file with one
    ``malformed model file`` line, or it loads and saves back to the edited
    bytes: nothing is coerced, and no later key silently wins."""
    label = data.draw(st.sampled_from(sorted(pinned_texts)), label="cell")
    name = data.draw(st.sampled_from(sorted({*NUMBER_EDITS, *SHAPE_EDITS})), label="edit")
    applies, edit = SHAPE_EDITS.get(name, (_is_number, None))
    root = [json.loads(pinned_texts[label], object_pairs_hook=Pairs)]
    slots = [slot for slot in _slots(root) if applies(_value(*slot[1:]))]
    # Each distinct key path is as likely as any other, however long its lists.
    pattern = data.draw(st.sampled_from(sorted({slot[0] for slot in slots})), label="at")
    slots = [slot for slot in slots if slot[0] == pattern]
    _, container, index = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    if edit is not None:
        edit(_value(container, index), data.draw)
    else:
        value = NUMBER_EDITS[name](_value(container, index), data.draw)
        container[index] = (container[index][0], value) if type(container) is Pairs else value
    path = pinned_texts.directory / "edited.json"
    path.write_text(_text(root[0]) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["predict", "--model-file", str(path),
                                       "--name", "Tamai Kazuyoshi"])
    if result.exit_code == 2:
        assert result.output.startswith("error: malformed model file: ")
        assert result.output.count("\n") == 1, result.output
        with pytest.raises(SchemaError):
            load_model(path)
    else:
        assert result.exit_code == 0, result.output
        again = path.with_name("again.json")
        save_model(again, load_model(path))
        assert again.read_bytes() == path.read_bytes()


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

"""The file layer: one place that opens files, and readers that turn any bad
file into a GendecError."""

import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gendec
import gendec.errors
from gendec.corpus import read_raw_csv
from gendec.errors import GendecError
from gendec.evaluate import ExperimentGrid, extract_texts, train_cell_model
from gendec.model_io import ModelFile, load_model
from gendec.models import ModelKind
from gendec.name_core import (
    CSV_HEADER,
    Gender,
    InputVariant,
    NamePart,
    NameRecord,
    read_corpus_csv,
    read_json,
    write_corpus_csv,
    write_json,
)
from gendec.translit import ReadingDictionary, build_reading_dictionary
from gendec.vectorize import TokenizerConfig, Weighting, fit_vocabulary, transform

SRC = Path(gendec.__file__).parent

# Functions allowed to open files: the two text helpers and the binary hash.
ALLOWED_OPENERS = {
    ("name_core.py", "read_text"),
    ("name_core.py", "write_lines"),
    ("cli.py", "_sha256_file"),
}
# pathlib's shortcuts open files too.
_OPENING_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _openers(tree: ast.Module):
    """(enclosing function, line) of each call that opens a file."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                        isinstance(func, ast.Attribute) and func.attr in _OPENING_METHODS):
                    yield function, child.lineno
            yield from walk(child, function)
    return walk(tree, None)


def test_only_the_file_helpers_open_files():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = str(path.relative_to(SRC))
        found += [(name, function, line) for function, line in _openers(tree)]
    stray = [site for site in found if site[:2] not in ALLOWED_OPENERS]
    assert not stray, f"files opened outside gendec.name_core's helpers: {stray}"
    assert {site[:2] for site in found} == ALLOWED_OPENERS


def _names(node):
    """Names in an ``except`` clause's type: ``E``, ``errors.E`` or a tuple."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _names(element)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def test_commands_leave_gendec_errors_to_the_cli_boundary():
    """Only the command group maps a GendecError to its exit code."""
    gendec_errors = {name for name, obj in vars(gendec.errors).items()
                     if isinstance(obj, type) and issubclass(obj, gendec.errors.GendecError)}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    handlers = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            handlers += [(function.name, handler.lineno) for handler in ast.walk(function)
                         if isinstance(handler, ast.ExceptHandler) and handler.type
                         and gendec_errors & set(_names(handler.type))]
    stray = [site for site in handlers if site[0].startswith("cmd_")]
    assert not stray, f"commands catching GendecError themselves: {stray}"
    assert [name for name, _line in handlers] == ["invoke"]


def test_no_raise_of_the_bare_base_class():
    """Every failure raises the ``GendecError`` subclass that names its kind."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _names(raised) == ["GendecError"]:
                    sites.append((str(path.relative_to(SRC)), node.lineno))
    assert not sites, f"bare GendecError raised at: {sites}"


# --- the tree grower sorts once, not per node ---------------------------------

# Each of these sorts or builds a table per call.
_SORTS = {"lexsort", "argsort", "sort", "isin", "in1d", "unique"}


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _sorts_in_loops(tree: ast.Module):
    """Line of each sort call in a ``for``/``while`` body, following calls
    from such a body into the module's own functions."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, followed = [], set()

    def visit(statements):
        for statement in statements:
            for call in ast.walk(statement):
                if not isinstance(call, ast.Call):
                    continue
                name = _called_name(call)
                if name in _SORTS:
                    found.append(call.lineno)
                elif name in functions and name not in followed:
                    followed.add(name)
                    visit(functions[name].body)

    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            visit(loop.body)
    return sorted(set(found))


def test_tree_module_sorts_no_node_inside_a_loop():
    tree = ast.parse((SRC / "models" / "tree.py").read_text(encoding="utf-8"))
    sorts = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) in _SORTS]
    assert len(sorts) == 1, f"expected one presort in models/tree.py, found lines {sorts}"
    stray = _sorts_in_loops(tree)
    assert not stray, f"models/tree.py sorts inside a loop (per node) at lines {stray}"


# --- every import is read --------------------------------------------------

def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a module-level import binds that the module
    never reads; ``from __future__`` imports and names in ``__all__`` aside."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_every_module_level_import_is_read():
    """Package and test modules read every name they import; an
    ``__init__.py`` re-exports, so its imports count as read."""
    paths = [*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = [(path.name, line, name) for path in sorted(paths)
              if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == [], f"imported but never read: {unused}"


# --- scipy stays off the import path ----------------------------------------

def _scipy_imports(tree: ast.Module):
    """(enclosing function or None, line, module) of each import of scipy."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            for module in modules:
                if module.split(".")[0] == "scipy":
                    yield function, child.lineno, module
            yield from walk(child, inner)
    return walk(tree, None)


def test_src_imports_no_scipy():
    """scipy is a test dependency only: LR's products and sigmoid are the
    package's own."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = path.relative_to(SRC).as_posix()
        found += [(name, function, module, line)
                  for function, line, module in _scipy_imports(tree)]
    assert found == [], f"scipy imported at {found}"


# Runs `gendec <argv>` in-process when given arguments, then prints which
# scipy modules were loaded.
_SCIPY_PROBE = """\
import sys
import gendec, gendec.cli
if sys.argv[1:]:
    gendec.cli.main.main(args=sys.argv[1:], prog_name="gendec", standalone_mode=False)
print("scipy modules:", *[m for m in ("scipy", "scipy.sparse", "scipy.special")
                          if m in sys.modules])
"""
# A None entry in sys.modules makes every later `import scipy...` fail.
_BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def _scipy_probe(*args: str, block: bool = False
                 ) -> tuple[set[str], subprocess.CompletedProcess]:
    """The scipy modules loaded after `gendec <args>`, and the process; with
    ``block``, any import of scipy in it fails."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    script = _BLOCK_SCIPY + _SCIPY_PROBE if block else _SCIPY_PROBE
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("scipy modules:"), done.stdout
    return set(last.split()[2:]), done


def _write_names(scratch) -> Path:
    names = scratch / "scipy-probe-names.txt"
    names.write_text("Tamai Kazuyoshi\nIwama Satoko\n", encoding="utf-8")
    return names


def _predict_argv(scratch, documents, kind) -> tuple[str, ...]:
    model = scratch / f"scipy-probe-{kind.value}.json"
    model.write_text(json.dumps(documents["model"][list(ModelKind).index(kind)]),
                     encoding="utf-8")
    return ("predict", "--model-file", str(model), "--batch", str(_write_names(scratch)))


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_predict_batch_does_not_load_scipy(scratch, documents, kind):
    """Where scipy is installed, `predict --batch` loads none of it: a
    runtime check that also sees an import the AST guard cannot, such as
    one by ``importlib`` or by a dependency."""
    assert _scipy_probe(*_predict_argv(scratch, documents, kind))[0] == set()


def _lr_train_argv(scratch, tokenizer: str = "word") -> tuple[str, ...]:
    corpus = str(scratch / "corpus.csv")  # written by the documents fixture
    return ("train", "--model", "lr", "--features", "tfidf", "--train", corpus,
            "--out", str(scratch / f"scipy-probe-trained-lr-{tokenizer}.json"),
            "--epochs", "5", "--tokenizer", tokenizer)


def _grid_argv(scratch, kinds) -> tuple[str, ...]:
    """A grid of one count cell per kind in ``kinds``."""
    corpus = str(scratch / "corpus.csv")
    name = "scipy-probe-grid-" + "-".join(kind.value for kind in kinds)
    config = scratch / f"{name}.json"
    config.write_text(json.dumps({
        "train": corpus, "test": corpus, "seed": 3,
        "cells": [{"model": kind.value, "features": "count", "variant": "original",
                   "part": "full"} for kind in kinds],
        "hyperparameters": {"lr": {"epochs": 5}, "svm": {"epochs": 2},
                            "rf": {"n_trees": 2}}}), encoding="utf-8")
    return ("grid", "--config", str(config),
            "--report-json", str(scratch / f"{name}-report.json"),
            "--report-csv", str(scratch / f"{name}-report.csv"))


def test_lr_training_does_not_load_scipy(scratch, documents):
    """`gendec train --model lr` and a grid with an lr cell run LR's sparse
    products in numpy: no scipy module is loaded."""
    for argv in (_lr_train_argv(scratch), _grid_argv(scratch, [ModelKind.LR])):
        assert _scipy_probe(*argv)[0] == set(), argv


@pytest.mark.parametrize("command", ["import", "train-word", "train-char", "grid", "predict"])
def test_commands_run_where_scipy_cannot_be_imported(scratch, documents, command):
    """Importing the CLI and each command succeed in a process where
    `import scipy` fails, as it does where scipy is not installed, and print
    nothing on stderr. The grid trains, and ``predict --batch`` runs, every
    kind."""
    argvs = {"import": [()],
             "train-word": [_lr_train_argv(scratch)],
             "train-char": [_lr_train_argv(scratch, "char_ngram")],
             "grid": [_grid_argv(scratch, list(ModelKind))],
             "predict": [_predict_argv(scratch, documents, kind) for kind in ModelKind],
             }[command]
    for argv in argvs:
        loaded, done = _scipy_probe(*argv, block=True)
        assert loaded == {"scipy"}, argv  # the blocking None entry; nothing imported
        assert done.stderr == "", done.stderr


def test_suite_collects_where_scipy_cannot_be_imported():
    """The test suite itself runs where scipy is absent: every module
    imports, and the tests that compare with scipy skip."""
    tests = Path(__file__).parent
    script = _BLOCK_SCIPY + (
        "import pytest\n"
        "sys.exit(pytest.main(['--collect-only', '-q', '-p', 'no:cacheprovider',"
        f" {str(tests)!r}]))\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=tests.parent,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, timeout=300)
    tail = done.stdout.splitlines()[-20:]  # the errors, if any, and the summary
    assert done.returncode == 0, "\n".join(tail) + done.stderr
    assert "error" not in tail[-1] and "collected" in tail[-1], tail[-1]


@pytest.mark.parametrize("bias", [-1000.0, 1000.0])
def test_predict_with_huge_lr_margins_is_silent(scratch, documents, bias):
    """Margins far beyond exp's range give probability 1, with nothing on
    stderr (the sigmoid's overflow stays inside it)."""
    doc = copy.deepcopy(documents["model"][list(ModelKind).index(ModelKind.LR)])
    parameters = doc["parameters"]
    parameters["weights"] = [0.0] * len(parameters["weights"])
    parameters["bias"] = bias
    model = scratch / "scipy-probe-huge-margin-lr.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    loaded, done = _scipy_probe("predict", "--model-file", str(model),
                                "--batch", str(_write_names(scratch)))
    assert done.stderr == ""
    assert loaded == set()
    gender = "male" if bias > 0 else "female"
    assert done.stdout.splitlines()[:-1] == [
        f"Tamai Kazuyoshi\t{gender}\t1.000000", f"Iwama Satoko\t{gender}\t1.000000"]


# --- every reader: loads, or raises a GendecError -------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@pytest.fixture(scope="module")
def documents(scratch):
    """Valid documents for each document reader, built from a tiny corpus."""
    records = [
        NameRecord("Tamai Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE),
        NameRecord("Iwama Satoko", "岩間智子", "いわまさとこ", Gender.FEMALE),
        NameRecord("Shiraki Yuka", "白木由花", "しらきゆか", Gender.FEMALE),
        NameRecord("Sata Kunishige", "佐田国重", "さたくにしげ", Gender.MALE),
    ]
    corpus = scratch / "corpus.csv"
    write_corpus_csv(corpus, records)
    reading, _ = build_reading_dictionary(records)
    texts, _ = extract_texts(records, NamePart.FULL, InputVariant.CONVERTED, reading)
    vocab = fit_vocabulary(texts, TokenizerConfig(), Weighting.TFIDF)
    X = transform(texts, vocab, Weighting.TFIDF)
    labels = [r.gender for r in records]
    model_docs = []
    for kind in ModelKind:
        overrides = {"n_trees": 2} if kind is ModelKind.RF else None
        model = train_cell_model(kind, X, labels, seed=1, hyperparameters=overrides)
        model_file = ModelFile(model, Weighting.TFIDF, NamePart.FULL,
                               InputVariant.CONVERTED, vocab, reading, {"seed": 1})
        model_docs.append(json.loads(json.dumps(model_file.to_json_dict())))
    grid = {"train": str(corpus), "test": str(corpus), "seed": 3,
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
            "hyperparameters": {"rf": {"n_trees": 2}},
            "tokenizer": {"mode": "char_ngram", "ngram_min": 2, "ngram_max": 3}}
    return {"model": model_docs, "grid": [grid],
            "dictionary": [reading.to_json_dict()]}


JSON_READERS = {"model": load_model, "grid": ExperimentGrid.load}
DOCUMENT_READERS = {
    "model": ModelFile.from_json_dict,
    "grid": ExperimentGrid.from_json_dict,
    "dictionary": ReadingDictionary.from_json_dict,
}
BYTE_READERS = {**JSON_READERS, "corpus": read_corpus_csv, "raw": read_raw_csv}
_HEADERS = {"corpus": CSV_HEADER.encode(), "raw": b"romaji,hiragana,kanji,gender,role"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _loads_or_gendec_error(reader, path: Path) -> None:
    try:
        reader(path)
    except GendecError:
        pass


def _read_from_file(path: Path, documents, reader: str, doc) -> None:
    """Write ``doc`` as the file that holds it and read that file: a reading
    dictionary is read only as the table a converted model file embeds."""
    if reader == "dictionary":
        reader, doc = "model", {**documents["model"][0], "reading_dictionary": doc}
    path.write_text(json.dumps(doc), encoding="utf-8")
    _loads_or_gendec_error(JSON_READERS[reader], path)


@pytest.mark.parametrize("reader", sorted(BYTE_READERS))
@_SETTINGS
@given(data=st.binary(), with_header=st.booleans())
def test_any_bytes_load_or_raise_gendec_error(scratch, reader, data, with_header):
    if with_header and reader in _HEADERS:
        data = _HEADERS[reader] + b"\n" + data
    path = scratch / f"bytes-{reader}"
    path.write_bytes(data)
    _loads_or_gendec_error(BYTE_READERS[reader], path)


@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
@_SETTINGS
@given(value=json_values)
def test_any_json_value_loads_or_raises_gendec_error(scratch, documents, reader, value):
    _read_from_file(scratch / f"value-{reader}.json", documents, reader, value)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a key/index path."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    """The value at a key/index path of a JSON document."""
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("reader", sorted(DOCUMENT_READERS))
@_SETTINGS
@given(data=st.data())
def test_valid_document_with_one_value_replaced(scratch, documents, reader, data):
    """A real document with any one position replaced or removed."""
    doc = copy.deepcopy(data.draw(st.sampled_from(documents[reader])))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = _at(doc, path[:-1])
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(json_values)
    else:
        del parent[path[-1]]
    _read_from_file(scratch / f"replaced-{reader}.json", documents, reader, doc)


# Objects whose keys are data, not schema: model metadata and the reading
# tables, which map kanji to readings.
_FREE_KEYS = {"metadata", "family", "given"}


def _schema_objects(doc):
    """Paths of the JSON objects in a document whose keys the reader fixes."""
    return [path for path in _paths(doc)
            if not (path and path[-1] in _FREE_KEYS) and isinstance(_at(doc, path), dict)]


@_SETTINGS
@given(key=st.text(), value=json_values)
def test_unknown_key_in_any_object_raises_gendec_error(documents, key, value):
    """One unknown key in the grid config, a cell, a tokenizer, a model file,
    its parameters, tree nodes or a reading dictionary is refused."""
    key = f"unknown:{key}"
    for reader, docs in documents.items():
        for doc in docs:
            for path in _schema_objects(doc):
                changed = copy.deepcopy(doc)
                _at(changed, path)[key] = value
                with pytest.raises(GendecError):
                    DOCUMENT_READERS[reader](changed)


# --- round trips ------------------------------------------------------------

_field = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n"),
                 min_size=1)
_token = st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
                 min_size=1)
records = st.lists(st.builds(
    NameRecord,
    romaji=st.builds(lambda family, given: f"{family} {given}", _token, _token),
    kanji=_field, hiragana=_field, gender=st.sampled_from(Gender),
))


@_SETTINGS
@given(rows=records)
def test_corpus_csv_round_trip(scratch, rows):
    path = scratch / "round-trip.csv"
    write_corpus_csv(path, rows)
    assert read_corpus_csv(path) == rows


_unicode = st.text(st.characters(blacklist_categories=("Cs",)))
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _unicode,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_unicode, children, max_size=4),
    max_leaves=12,
)


@_SETTINGS
@given(doc=json_documents, options=st.sampled_from([
    {"sort_keys": True, "separators": (",", ":")},
    {"indent": 2, "sort_keys": True},
    {"ensure_ascii": False, "sort_keys": True},
]))
def test_json_round_trip(scratch, doc, options):
    path = scratch / "round-trip.json"
    write_json(path, doc, **options)
    assert read_json(path) == doc

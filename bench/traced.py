"""Traced run of the real gendec CLI commands, timed per module from outside.

``run.py`` starts this script as a child process (with ``src`` on
``PYTHONPATH``) when it is given ``--trace 1``.  The script imports
``gendec.cli``, replaces the module-level names that ``gendec.cli`` and
``gendec.evaluate`` look up at call time (``read_corpus_csv``,
``extract_texts``, ``transform``, ``train_cell_model``, ``predict``,
``load_model`` and the rest) with wrappers that record a span around each
call, and then runs the CLI commands the spec lists through
``gendec.cli.main``.  Nothing in ``src/`` is changed: the calls, their
order and their count are the program's own.

Spans stay in memory (name, start, end, parent, cell, phase) and are
written once, at exit, to the ``--out`` JSON together with the values
noted at the same call boundaries, each command's exit code and the
``predict`` output.  ``run.py`` derives the per-layer metrics from them.

    PYTHONPATH=src python3 bench/traced.py --spec SPEC.json --out SPANS.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory spans and noted values, each tagged with the running command."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.notes: dict[str, dict[str, list[float]]] = {}
        self.phase = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": self._open[-1] if self._open else None, "cell": None,
             "phase": self.phase}
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def note(self, key: str, value: float) -> None:
        self.notes.setdefault(self.phase, {}).setdefault(key, []).append(float(value))


def wrap(tr: Tracer, fn, name, note=None):
    """``fn`` with a span around each call.

    ``name`` is the span name, or a function of the call's arguments that
    returns it.  ``note(tr, result, *args)`` runs after the span closes.
    """
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tr.span(name(*args, **kwargs) if callable(name) else name):
            result = fn(*args, **kwargs)
        if note is not None:
            note(tr, result, *args, **kwargs)
        return result

    return traced


def _tree_depth(tree) -> int:
    depth = [0] * tree.n_nodes
    for node in range(tree.n_nodes):  # children always follow their parent
        for child in (int(tree.left[node]), int(tree.right[node])):
            if child >= 0:
                depth[child] = depth[node] + 1
    return max(depth)


def instrument(tr: Tracer) -> None:
    """Wrap every layer call that ``gendec.cli`` and ``gendec.evaluate`` make."""
    import gendec.cli as cli
    import gendec.evaluate as evaluate
    from gendec.models import (
        ForestModel, LRModel, ModelKind, NBModel, SVMModel, TreeModel,
    )
    from gendec.name_core import InputVariant

    kind_of = {NBModel: ModelKind.NB, LRModel: ModelKind.LR, TreeModel: ModelKind.DT,
               ForestModel: ModelKind.RF, SVMModel: ModelKind.SVM}

    def model_span(what: str):
        return lambda model, *_, **__: f"models.{kind_of[type(model)].value}.{what}"

    def note_rows(tr, records, *_):
        tr.note("name_core.rows", len(records))

    def note_dictionary(tr, result, *_):
        reading_dict, skipped = result
        tr.note("translit.skipped_records", skipped)
        tr.note("translit.dict_entries", len(reading_dict.family) + len(reading_dict.given))

    def note_cell(tr, _report, y_true, y_pred, cell, fallback_rate=0.0):
        tr.spans[-1]["cell"] = cell.label()  # the span that just closed
        if cell.variant is InputVariant.CONVERTED:
            tr.note("translit.fallback_rate", fallback_rate)

    def note_model(tr, model, *_, **__):
        if isinstance(model, TreeModel):
            tr.note("models.dt.nodes", model.n_nodes)
            tr.note("models.dt.depth", _tree_depth(model))
        elif isinstance(model, ForestModel):
            for tree in model.trees:
                tr.note("models.rf.nodes", tree.n_nodes)

    def note_file_bytes(tr, _result, path, *_):
        tr.note("model_io.file_bytes", Path(path).stat().st_size)

    layers = {  # name -> (span name, note)
        "read_raw_csv": ("corpus.read_raw_csv", None),
        "build_dataset": ("corpus.build_dataset", None),
        "split_dataset": ("corpus.split_dataset", None),
        "read_corpus_csv": ("name_core.read_corpus_csv", note_rows),
        "write_corpus_csv": ("name_core.write_corpus_csv", None),
        "build_reading_dictionary": ("translit.build_reading_dictionary", note_dictionary),
        "run_cells": ("evaluate.run_cells", None),
        "extract_texts": ("evaluate.extract_texts", None),
        "evaluate_predictions": ("evaluate.evaluate_predictions", note_cell),
        "write_reports_json": ("evaluate.write_reports", None),
        "write_reports_csv": ("evaluate.write_reports", None),
        "fit_vocabulary": ("vectorize.fit_vocabulary",
                           lambda tr, vocab, *_: tr.note("vectorize.vocab_size", vocab.size)),
        "transform": ("vectorize.transform",
                      lambda tr, X, *_: tr.note("vectorize.nnz", X.matrix.nnz)),
        "train_cell_model": (lambda kind, *_, **__: f"models.{kind.value}.fit", note_model),
        "predict": (model_span("predict"), None),
        "predict_proba": (model_span("predict_proba"), None),
        "save_model": ("model_io.save", note_file_bytes),
        "load_model": ("model_io.load", None),
        # The per-name path of `gendec predict`: transform, predict, predict_proba.
        "_predict_one": (lambda loaded, *_: f"models.{loaded.kind.value}.predict_row", None),
    }
    for module in (cli, evaluate):
        for attr, (name, note) in layers.items():
            if hasattr(module, attr):
                setattr(module, attr, wrap(tr, getattr(module, attr), name, note))


def label_cells(spans: list[dict]) -> None:
    """Give each span under ``run_cells`` the label of the cell it served.

    ``run_cells`` ends each cell with ``evaluate_predictions(..., cell, ...)``;
    the spans since the previous cell's end belong to that cell.
    """
    pending: list[dict] = []
    for span in spans:
        parent = span["parent"]
        if parent is None or spans[parent]["name"] != "evaluate.run_cells":
            continue
        if span["name"] == "translit.build_reading_dictionary":
            continue  # built once, for every cell
        pending.append(span)
        if span["name"] == "evaluate.evaluate_predictions":
            for member in pending:
                member["cell"] = span["cell"]
            pending = []


def span_cost() -> float:
    """Seconds a wrapper and its span add to one call (median of 9 batches)."""
    def noop() -> None:
        pass

    probe = Tracer()
    traced = wrap(probe, noop, "probe")
    batches = []
    for _ in range(9):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(1000):
            traced()
        middle = time.perf_counter()
        for _ in range(1000):
            noop()
        batches.append((2 * middle - start - time.perf_counter()) / 1000)
    return statistics.median(batches)


def run_command(tr: Tracer, args: list[str]) -> tuple[int, str]:
    """``gendec <args>`` in this process, as a top-level span; exit code and stdout."""
    import gendec.cli as cli

    tr.phase = args[0]
    out = io.StringIO()
    code = 0
    with tr.span(args[0]), contextlib.redirect_stdout(out):
        try:
            cli.main.main(args=args, prog_name="gendec", standalone_mode=False)
        except SystemExit as exc:  # _fail() exits with the command's error code
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description="Traced run of the gendec CLI commands.")
    parser.add_argument("--spec", required=True,
                        help='JSON written by run.py: {"commands": [[arg, ...], ...]}')
    parser.add_argument("--out", required=True, help="spans JSON to write")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]

    tr = Tracer()
    tr.phase = "import"
    with tr.span("cli.import"):
        import gendec.cli  # noqa: F401  (what every CLI process pays first)
    instrument(tr)
    exits, outputs = [], {}
    for command in commands:
        code, stdout = run_command(tr, command)
        exits.append({"command": command[0], "exit": code})
        outputs[command[0]] = stdout
    label_cells(tr.spans)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "notes": tr.notes, "exits": exits,
                   "predict_output": outputs.get("predict", ""),
                   "span_cost_s": span_cost()}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()

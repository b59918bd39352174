"""Metrics and the experiment runner for the model/feature/variant/part grid.

Reports carry per-class F1, macro F1 (their unweighted mean), accuracy,
and the confusion matrix.  Degenerate precision/recall cases use the
0/0 -> 0 convention and set a flag on the report.  The grid runner fits
vocabularies and the reading dictionary strictly on the training split.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    ConfigError,
    EmptyInputError,
    GendecError,
    LengthMismatchError,
)
from .models import MODEL_KINDS, ModelKind, TrainedModel, check_hyperparameters, predict
from .name_core import (
    GENDERS,
    Gender,
    InputVariant,
    NamePart,
    NameRecord,
    check_keys,
    check_values,
    enum_member,
    part_text,
    read_corpus_csv,
    read_json,
    write_json,
    write_lines,
)
from .translit import ReadingDictionary, build_reading_dictionary, convert_name
from .vectorize import (
    FeatureMatrix,
    TokenizerConfig,
    Vocabulary,
    Weighting,
    fit_vocabulary,
    tfidf_from_counts,
    transform,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts indexed (true gender, predicted gender), female first."""

    counts: tuple[tuple[int, int], tuple[int, int]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.counts]


def confusion(y_true: Sequence[Gender], y_pred: Sequence[Gender]) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(
            f"y_true has {len(y_true)} labels, y_pred has {len(y_pred)}"
        )
    if len(y_true) == 0:
        raise EmptyInputError("cannot tally an empty label sequence")
    tally = [[0, 0], [0, 0]]
    for truth, pred in zip(y_true, y_pred):
        tally[GENDERS.index(truth)][GENDERS.index(pred)] += 1
    return ConfusionMatrix(counts=tuple(tuple(row) for row in tally))


@dataclass(frozen=True)
class F1Result:
    f1_female: float
    f1_male: float
    macro_f1: float
    degenerate: bool  # some precision/recall hit the 0/0 -> 0 convention


def f1_scores(cm: ConfusionMatrix) -> F1Result:
    counts = cm.counts
    degenerate = False

    def per_class(c: int) -> float:
        nonlocal degenerate
        tp = counts[c][c]
        fp = counts[1 - c][c]
        fn = counts[c][1 - c]
        if tp + fp == 0 or tp + fn == 0:
            degenerate = True
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    f1_female = per_class(0)
    f1_male = per_class(1)
    return F1Result(
        f1_female=f1_female,
        f1_male=f1_male,
        macro_f1=(f1_female + f1_male) / 2.0,
        degenerate=degenerate,
    )


def accuracy(cm: ConfusionMatrix) -> float:
    return (cm.counts[0][0] + cm.counts[1][1]) / cm.total


@dataclass(frozen=True)
class Cell:
    """One grid cell: classifier x encoding x romaji variant x name part."""

    model: ModelKind
    weighting: Weighting
    variant: InputVariant
    part: NamePart

    def __post_init__(self) -> None:
        axes = (ModelKind, Weighting, InputVariant, NamePart)
        for (name, value), axis in zip(vars(self).items(), axes):
            enum_member(axis, value, f"cell {name}")

    def key(self) -> tuple[int, int, int, int]:
        """Each field's position in its enum, whose order is the report order."""
        return tuple(list(type(value)).index(value) for value in vars(self).values())

    def label(self) -> str:
        return "/".join(self.to_json_dict().values())

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value,
            "features": self.weighting.value,
            "variant": self.variant.value,
            "part": self.part.value,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Cell":
        """Cell from its config entry; a missing or unknown key raises ConfigError."""
        check_keys(doc, ("model", "features", "variant", "part"))
        return cls(ModelKind(doc["model"]), Weighting(doc["features"]),
                   InputVariant(doc["variant"]), NamePart(doc["part"]))


_METRICS = ("f1_female", "f1_male", "macro_f1", "accuracy", "fallback_rate")


@dataclass(frozen=True)
class EvalReport:
    """One cell's scores; the five metrics are computed from ``confusion``."""

    cell: Cell
    confusion: ConfusionMatrix
    fallback_rate: float = 0.0
    f1_female: float = field(init=False)
    f1_male: float = field(init=False)
    macro_f1: float = field(init=False)
    accuracy: float = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self) -> None:
        metrics = {**vars(f1_scores(self.confusion)), "accuracy": accuracy(self.confusion)}
        for name, value in metrics.items():
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {
            **self.cell.to_json_dict(),
            **{name: getattr(self, name) for name in _METRICS},
            "confusion": self.confusion.as_lists(),
            "degenerate": self.degenerate,
        }

    def csv_row(self) -> str:
        return ",".join([*self.cell.to_json_dict().values(),
                         *(f"{getattr(self, name):.6f}" for name in _METRICS)])


REPORT_CSV_HEADER = ",".join(("model", "features", "variant", "part", *_METRICS))


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell; a failed cell carries an error, not a report."""

    cell: Cell
    report: Optional[EvalReport] = None
    error: Optional[str] = None


@dataclass
class ExperimentGrid:
    cells: list[Cell]
    train_path: str | Path
    test_path: str | Path
    seed: int = 42
    hyperparameters: dict = field(default_factory=dict)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        _check_run(self.cells, self.seed, self.hyperparameters)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentGrid":
        """Grid from a config document: train/test paths, seed, cells or
        preset, hyperparameters, tokenizer.

        Any malformed or unknown entry raises ConfigError, before a corpus
        is read.  Only a missing key takes its default.
        """
        check_keys(doc, ("train", "test"),
                   ("seed", "cells", "preset", "hyperparameters", "tokenizer"))
        if "cells" in doc and "preset" in doc:
            raise ConfigError("grid config takes cells or preset, not both")
        try:
            for key in ("train", "test"):
                if not Path(doc[key]).is_file():
                    raise ConfigError(f"grid config {key} path is not a file: {doc[key]}")
            if "cells" in doc:
                cells = [Cell.from_json_dict(c) for c in doc["cells"]]
            else:
                cells = preset_cells(doc.get("preset", "classical-full"))
            return cls(
                cells=cells,
                train_path=doc["train"],
                test_path=doc["test"],
                seed=doc.get("seed", 42),
                hyperparameters=doc.get("hyperparameters", {}),
                tokenizer=TokenizerConfig.from_json_dict(doc["tokenizer"])
                if "tokenizer" in doc else TokenizerConfig(),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"malformed grid config: {type(exc).__name__}: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentGrid":
        """Grid from a config file; one not UTF-8 or not JSON raises SchemaError."""
        return cls.from_json_dict(read_json(path))


def _check_run(cells: Sequence[Cell], seed: int, hyperparameters: dict) -> None:
    """Raise ConfigError unless the cells are non-empty and unique and the seed
    and hyperparameters pass their rules, so a bad value fails before any cell."""
    if not cells:
        raise ConfigError("grid has no cells")
    if len(set(cells)) != len(cells):
        raise ConfigError("grid cells must be unique")
    check_values(seed=seed)
    check_hyperparameters(hyperparameters)


def classical_full_grid() -> list[Cell]:
    """Every classifier x encoding x variant on full names (20 cells)."""
    return [
        Cell(model=m, weighting=w, variant=v, part=NamePart.FULL)
        for m in ModelKind
        for w in Weighting
        for v in InputVariant
    ]


def ablation_grid() -> list[Cell]:
    """Best classical pairings across first/last/full name parts (12 cells)."""
    best = (
        (ModelKind.RF, Weighting.TFIDF),
        (ModelKind.SVM, Weighting.COUNT),
    )
    return [
        Cell(model=m, weighting=w, variant=v, part=p)
        for m, w in best
        for v in InputVariant
        for p in NamePart
    ]


def preset_cells(name: str) -> list[Cell]:
    """Cells of a named preset: classical-full, ablation, or all (their union)."""
    if name == "classical-full":
        return classical_full_grid()
    if name == "ablation":
        return ablation_grid()
    if name == "all":
        cells = classical_full_grid()
        return cells + [c for c in ablation_grid() if c not in cells]
    raise ConfigError(f"unknown preset {name!r}")


def evaluate_predictions(
    y_true: Sequence[Gender],
    y_pred: Sequence[Gender],
    cell: Cell,
    fallback_rate: float = 0.0,
) -> EvalReport:
    return EvalReport(cell, confusion(y_true, y_pred), fallback_rate)


def extract_texts(
    records: Sequence[NameRecord],
    part: NamePart,
    variant: InputVariant,
    reading_dict: Optional[ReadingDictionary] = None,
) -> tuple[list[str], float]:
    """Per-record part text plus the fraction of records that fell back.

    For the converted variant a record counts as a fallback when any
    part it contributes used the original romaji because its kanji was
    absent from the dictionary.
    """
    enum_member(NamePart, part, "part")
    enum_member(InputVariant, variant, "variant")
    if variant is InputVariant.ORIGINAL:
        return [part_text(r.romaji, part) for r in records], 0.0
    if reading_dict is None:
        raise ConfigError("converted romaji requires a reading dictionary")
    texts = []
    fallbacks = 0
    for record in records:
        converted = convert_name(record, reading_dict)
        texts.append(part_text(f"{converted.family} {converted.given}", part))
        fallbacks += (converted.family_fell_back and part is not NamePart.FIRST) or (
            converted.given_fell_back and part is not NamePart.LAST
        )
    rate = fallbacks / len(records) if records else 0.0
    return texts, rate


def train_cell_model(
    kind: ModelKind,
    X,
    y: Sequence[Gender],
    seed: int,
    hyperparameters: Optional[dict] = None,
) -> TrainedModel:
    """Train ``kind``, ``hyperparameters`` over its trainer's defaults (and ``seed``)."""
    spec = MODEL_KINDS[kind]
    params = dict(hyperparameters or {})
    if "seed" in inspect.signature(spec.train).parameters:
        params["seed"] = seed
    return spec.train(X, y, **params)


def _featurize(
    train_records: Sequence[NameRecord],
    test_records: Sequence[NameRecord],
    part: NamePart,
    variant: InputVariant,
    reading_dict: Optional[ReadingDictionary],
    tokenizer: TokenizerConfig,
) -> tuple[FeatureMatrix, FeatureMatrix, Vocabulary, float]:
    """Train and test count matrices of one (variant, part), the vocabulary
    (with idf) fitted on the train texts, and the test fallback rate."""
    train_texts, _ = extract_texts(train_records, part, variant, reading_dict)
    test_texts, fallback_rate = extract_texts(test_records, part, variant, reading_dict)
    vocab = fit_vocabulary(train_texts, tokenizer, Weighting.TFIDF)
    X_train = transform(train_texts, vocab, Weighting.COUNT)
    X_test = transform(test_texts, vocab, Weighting.COUNT)
    return X_train, X_test, vocab, fallback_rate


def run_cells(
    cells: Sequence[Cell],
    train_records: Sequence[NameRecord],
    test_records: Sequence[NameRecord],
    seed: int = 42,
    hyperparameters: Optional[dict] = None,
    tokenizer: Optional[TokenizerConfig] = None,
) -> list[CellResult]:
    """Run grid cells in canonical key order; failures stay per-cell.

    The reading dictionary for converted cells is built once, from the
    training records only, and dropped once no later cell needs it to
    featurize.  Each (variant, part) is featurized once and its count
    matrices are shared by every cell that uses it; a TF-IDF cell weights
    new values over the count matrices' index arrays.
    """
    hyperparameters = {} if hyperparameters is None else hyperparameters
    _check_run(cells, seed, hyperparameters)
    if not train_records or not test_records:
        raise EmptyInputError("train and test splits must be non-empty")
    tokenizer = tokenizer or TokenizerConfig()
    y_train = [r.gender for r in train_records]
    y_test = [r.gender for r in test_records]

    reading_dict: Optional[ReadingDictionary] = None
    if any(cell.variant is InputVariant.CONVERTED for cell in cells):
        reading_dict, _skipped = build_reading_dictionary(train_records)

    features: dict[tuple[InputVariant, NamePart], tuple] = {}
    results = []
    cells = sorted(cells, key=Cell.key)
    for i, cell in enumerate(cells):
        try:
            encoding = (cell.variant, cell.part)
            if encoding not in features:  # stored only once it is whole
                features[encoding] = _featurize(
                    train_records, test_records, cell.part, cell.variant,
                    reading_dict, tokenizer,
                )
            if reading_dict is not None and all(
                    (c.variant, c.part) in features for c in cells[i + 1:]
                    if c.variant is InputVariant.CONVERTED):
                reading_dict = None  # no later cell featurizes with it: free it now
            X_train, X_test, vocab, fallback_rate = features[encoding]
            if cell.weighting is Weighting.TFIDF:
                X_train = tfidf_from_counts(X_train, vocab)
                X_test = tfidf_from_counts(X_test, vocab)
            model = train_cell_model(
                cell.model, X_train, y_train, seed,
                hyperparameters.get(cell.model.value),
            )
            y_pred = predict(model, X_test)
            report = evaluate_predictions(y_test, y_pred, cell, fallback_rate)
            results.append(CellResult(cell=cell, report=report))
        except GendecError as exc:  # failed cell is reported, not fatal
            results.append(
                CellResult(cell=cell, error=f"{type(exc).__name__}: {exc}")
            )
    return results


def run_experiment(grid: ExperimentGrid) -> list[CellResult]:
    train_records = read_corpus_csv(grid.train_path)
    test_records = read_corpus_csv(grid.test_path)
    return run_cells(
        grid.cells,
        train_records,
        test_records,
        seed=grid.seed,
        hyperparameters=grid.hyperparameters,
        tokenizer=grid.tokenizer,
    )


def write_reports_json(path: str | Path, results: Sequence[CellResult]) -> None:
    payload = [
        result.report.to_json_dict() if result.report is not None
        else {**result.cell.to_json_dict(), "error": result.error}
        for result in results
    ]
    write_json(path, payload, indent=2, sort_keys=True)


def write_reports_csv(path: str | Path, results: Sequence[CellResult]) -> None:
    rows = [result.report.csv_row() for result in results if result.report is not None]
    write_lines(path, [REPORT_CSV_HEADER, *rows])

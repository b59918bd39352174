"""Metrics and the experiment runner for the model/feature/variant/part grid.

Reports carry per-class F1, macro F1 (their unweighted mean), accuracy,
and the confusion matrix.  Degenerate precision/recall cases use the
0/0 -> 0 convention and set a flag on the report.  The grid runner fits
vocabularies and the reading dictionary strictly on the training split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    ConfigError,
    EmptyInputError,
    GendecError,
    LengthMismatchError,
    MissingDictionaryError,
)
from .models import MODEL_KINDS, ModelKind, TrainedModel, check_hyperparameters, predict
from .name_core import (
    GENDERS,
    Gender,
    InputVariant,
    NamePart,
    NameRecord,
    part_text,
    read_corpus_csv,
)
from .translit import ReadingDictionary, build_reading_dictionary, convert_name
from .vectorize import TokenizerConfig, Weighting, fit_vocabulary, transform


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


_PART_ORDER = (NamePart.FIRST, NamePart.LAST, NamePart.FULL)
_VARIANT_ORDER = (InputVariant.ORIGINAL, InputVariant.CONVERTED)
_WEIGHTING_ORDER = (Weighting.COUNT, Weighting.TFIDF)
_MODEL_ORDER = tuple(ModelKind)


@dataclass(frozen=True)
class Cell:
    """One grid cell: classifier x encoding x romaji variant x name part."""

    model: ModelKind
    weighting: Weighting
    variant: InputVariant
    part: NamePart

    def key(self) -> tuple[int, int, int, int]:
        return (
            _MODEL_ORDER.index(self.model),
            _WEIGHTING_ORDER.index(self.weighting),
            _VARIANT_ORDER.index(self.variant),
            _PART_ORDER.index(self.part),
        )

    def label(self) -> str:
        return (
            f"{self.model.value}/{self.weighting.value}"
            f"/{self.variant.value}/{self.part.value}"
        )

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.value,
            "features": self.weighting.value,
            "variant": self.variant.value,
            "part": self.part.value,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Cell":
        return cls(ModelKind(doc["model"]), Weighting(doc["features"]),
                   InputVariant(doc["variant"]), NamePart(doc["part"]))


@dataclass(frozen=True)
class EvalReport:
    cell: Cell
    f1_female: float
    f1_male: float
    macro_f1: float
    accuracy: float
    confusion: ConfusionMatrix
    fallback_rate: float = 0.0
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            **self.cell.to_json_dict(),
            "f1_female": self.f1_female,
            "f1_male": self.f1_male,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
            "confusion": self.confusion.as_lists(),
            "fallback_rate": self.fallback_rate,
            "degenerate": self.degenerate,
        }

    def csv_row(self) -> str:
        return (
            f"{self.cell.model.value},{self.cell.weighting.value},"
            f"{self.cell.variant.value},{self.cell.part.value},"
            f"{self.f1_female:.6f},{self.f1_male:.6f},{self.macro_f1:.6f},"
            f"{self.accuracy:.6f},{self.fallback_rate:.6f}"
        )


REPORT_CSV_HEADER = (
    "model,features,variant,part,f1_female,f1_male,macro_f1,accuracy,fallback_rate"
)


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
        check_hyperparameters(self.hyperparameters)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentGrid":
        """Grid from a config document: train/test paths, seed, cells or
        preset, hyperparameters, tokenizer.

        Any malformed or unknown entry raises ConfigError, before a corpus
        is read.
        """
        try:
            for key in ("train", "test"):
                if key not in doc:
                    raise ConfigError(f"grid config missing {key!r}")
                if not Path(doc[key]).exists():
                    raise ConfigError(f"grid config {key} path does not exist: {doc[key]}")
            if "cells" in doc:
                cells = [Cell.from_json_dict(c) for c in doc["cells"]]
            else:
                cells = preset_cells(doc.get("preset", "classical-full"))
            tokenizer = doc.get("tokenizer")
            return cls(
                cells=cells,
                train_path=doc["train"],
                test_path=doc["test"],
                seed=int(doc.get("seed", 42)),
                hyperparameters=doc.get("hyperparameters") or {},
                tokenizer=TokenizerConfig.from_json_dict(tokenizer) if tokenizer
                else TokenizerConfig(),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed grid config: {type(exc).__name__}: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentGrid":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: grid config is not JSON: {exc}") from None
        return cls.from_json_dict(doc)


def classical_full_grid() -> list[Cell]:
    """Every classifier x encoding x variant on full names (20 cells)."""
    return [
        Cell(model=m, weighting=w, variant=v, part=NamePart.FULL)
        for m in _MODEL_ORDER
        for w in _WEIGHTING_ORDER
        for v in _VARIANT_ORDER
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
        for v in _VARIANT_ORDER
        for p in _PART_ORDER
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
    cm = confusion(y_true, y_pred)
    scores = f1_scores(cm)
    return EvalReport(
        cell=cell,
        f1_female=scores.f1_female,
        f1_male=scores.f1_male,
        macro_f1=scores.macro_f1,
        accuracy=accuracy(cm),
        confusion=cm,
        fallback_rate=fallback_rate,
        degenerate=scores.degenerate,
    )


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
    if variant is InputVariant.ORIGINAL:
        return [part_text(r.romaji, part) for r in records], 0.0
    if reading_dict is None:
        raise MissingDictionaryError("converted romaji requires a reading dictionary")
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
    """Train ``kind`` with its defaults overridden by ``hyperparameters``."""
    spec = MODEL_KINDS[kind]
    params = {**spec.defaults, **(hyperparameters or {})}
    if spec.seeded:
        params["seed"] = seed
    return spec.train(X, y, **params)


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
    training records only.
    """
    if len(set(cells)) != len(cells):
        raise ConfigError("grid cells must be unique")
    if not train_records or not test_records:
        raise EmptyInputError("train and test splits must be non-empty")
    tokenizer = tokenizer or TokenizerConfig()
    hyperparameters = hyperparameters or {}
    check_hyperparameters(hyperparameters)
    y_train = [r.gender for r in train_records]
    y_test = [r.gender for r in test_records]

    reading_dict: Optional[ReadingDictionary] = None
    if any(cell.variant is InputVariant.CONVERTED for cell in cells):
        reading_dict, _skipped = build_reading_dictionary(train_records)

    results = []
    for cell in sorted(cells, key=Cell.key):
        try:
            train_texts, _ = extract_texts(
                train_records, cell.part, cell.variant, reading_dict
            )
            test_texts, fallback_rate = extract_texts(
                test_records, cell.part, cell.variant, reading_dict
            )
            vocab = fit_vocabulary(train_texts, tokenizer, cell.weighting)
            X_train = transform(train_texts, vocab, cell.weighting)
            X_test = transform(test_texts, vocab, cell.weighting)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports_csv(path: str | Path, results: Sequence[CellResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        for result in results:
            if result.report is not None:
                fh.write(result.report.csv_row() + "\n")

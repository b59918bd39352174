import numpy as np
import pytest

from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
    MissingDictionaryError,
)
from gendec.evaluate import (
    Cell,
    ExperimentGrid,
    ablation_grid,
    accuracy,
    classical_full_grid,
    confusion,
    evaluate_predictions,
    extract_texts,
    f1_scores,
    run_cells,
    write_reports_csv,
    write_reports_json,
)
from gendec.models import ModelKind
from gendec.name_core import Gender, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import Weighting, fit_vocabulary

F, M = Gender.FEMALE, Gender.MALE


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([M, F], [M, F])
        assert cm.counts == ((1, 0), (0, 1))

    def test_hand_tally(self):
        cm = confusion([M, M, F, F], [M, F, F, F])
        # (true, pred) with female index 0.
        assert cm.counts == ((2, 0), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            confusion([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion([M], [M, F])


class TestF1:
    def test_perfect(self):
        scores = f1_scores(confusion([M, F], [M, F]))
        assert (scores.f1_female, scores.f1_male, scores.macro_f1) == (1.0, 1.0, 1.0)

    def test_hand_example(self):
        scores = f1_scores(confusion([M, M, F, F], [M, F, F, F]))
        assert scores.f1_male == pytest.approx(2 / 3, abs=1e-12)
        assert scores.f1_female == pytest.approx(0.8, abs=1e-12)
        assert scores.macro_f1 == pytest.approx(11 / 15, abs=1e-9)

    def test_all_wrong_class_zero(self):
        scores = f1_scores(confusion([M, M], [F, F]))
        assert scores == f1_scores(confusion([M, M], [F, F]))
        assert (scores.f1_female, scores.f1_male, scores.macro_f1) == (0.0, 0.0, 0.0)
        assert scores.degenerate

    def test_macro_is_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            y_true = [M if b else F for b in rng.integers(0, 2, n)]
            y_pred = [M if b else F for b in rng.integers(0, 2, n)]
            scores = f1_scores(confusion(y_true, y_pred))
            assert scores.macro_f1 == pytest.approx(
                (scores.f1_female + scores.f1_male) / 2, abs=1e-12
            )

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(4)
        flip = {F: M, M: F}
        for _ in range(100):
            n = int(rng.integers(2, 25))
            y_true = [M if b else F for b in rng.integers(0, 2, n)]
            y_pred = [M if b else F for b in rng.integers(0, 2, n)]
            a = f1_scores(confusion(y_true, y_pred))
            b = f1_scores(
                confusion([flip[t] for t in y_true], [flip[p] for p in y_pred])
            )
            assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)

    def test_brute_force_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            y_true = [M if b else F for b in rng.integers(0, 2, n)]
            y_pred = [M if b else F for b in rng.integers(0, 2, n)]
            scores = f1_scores(confusion(y_true, y_pred))
            for gender, got in ((F, scores.f1_female), (M, scores.f1_male)):
                tp = sum(t is gender and p is gender for t, p in zip(y_true, y_pred))
                fp = sum(t is not gender and p is gender for t, p in zip(y_true, y_pred))
                fn = sum(t is gender and p is not gender for t, p in zip(y_true, y_pred))
                precision = tp / (tp + fp) if tp + fp else 0.0
                recall = tp / (tp + fn) if tp + fn else 0.0
                expected = (
                    2 * precision * recall / (precision + recall)
                    if precision + recall
                    else 0.0
                )
                assert got == pytest.approx(expected, abs=1e-12)


def test_accuracy():
    assert accuracy(confusion([M, M, F, F], [M, F, F, F])) == 0.75


class TestGrids:
    def test_classical_full_grid_shape(self):
        cells = classical_full_grid()
        assert len(cells) == 20
        assert len(set(cells)) == 20
        assert all(c.part is NamePart.FULL for c in cells)

    def test_ablation_grid_shape(self):
        cells = ablation_grid()
        assert len(cells) == 12
        assert {(c.model, c.weighting) for c in cells} == {
            (ModelKind.RF, Weighting.TFIDF),
            (ModelKind.SVM, Weighting.COUNT),
        }

    def test_duplicate_cells_rejected(self, synthetic_corpus):
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        with pytest.raises(ConfigError):
            run_cells([cell, cell], synthetic_corpus[:20], synthetic_corpus[:10])


@pytest.fixture(scope="module")
def splits(synthetic_corpus):
    train, _val, test = split_dataset(
        synthetic_corpus, SplitRatios(0.7, 0.2, 0.1), seed=42
    )
    return train, test


class TestRunCells:
    def test_single_cell_contract(self, splits):
        train, test = splits
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        results = run_cells([cell], train, test)
        assert len(results) == 1
        report = results[0].report
        assert report is not None
        for value in (report.f1_female, report.f1_male, report.macro_f1,
                      report.accuracy):
            assert 0.0 <= value <= 1.0
        assert report.confusion.total == len(test)

    def test_results_ordered_by_cell_key(self, splits):
        train, test = splits
        cells = [
            Cell(ModelKind.SVM, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL),
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL),
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FIRST),
        ]
        results = run_cells(cells, train, test)
        labels = [r.cell.label() for r in results]
        assert labels == [
            "nb/count/original/first",
            "nb/count/original/full",
            "svm/count/original/full",
        ]

    def test_reproducible_reports(self, splits):
        train, test = splits
        cells = [
            Cell(ModelKind.RF, Weighting.TFIDF, InputVariant.ORIGINAL, NamePart.FULL),
            Cell(ModelKind.SVM, Weighting.COUNT, InputVariant.CONVERTED, NamePart.FULL),
        ]
        hyper = {"rf": {"n_trees": 10}}
        a = run_cells(cells, train, test, seed=42, hyperparameters=hyper)
        b = run_cells(cells, train, test, seed=42, hyperparameters=hyper)
        assert [r.report.to_json_dict() for r in a] == [
            r.report.to_json_dict() for r in b
        ]

    def test_last_name_not_better_than_first_name(self, splits):
        train, test = splits
        cells = [
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FIRST),
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.LAST),
        ]
        results = {r.cell.part: r.report.macro_f1 for r in run_cells(cells, train, test)}
        assert results[NamePart.LAST] <= results[NamePart.FIRST]

    def test_converted_cells_report_fallback_rate(self, splits):
        train, test = splits
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.CONVERTED, NamePart.FULL)
        result = run_cells([cell], train, test)[0]
        assert result.report is not None
        assert 0.0 <= result.report.fallback_rate <= 1.0

    def test_failed_cell_reported_not_fatal(self, splits):
        train, test = splits
        good = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        bad = Cell(ModelKind.LR, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        results = run_cells(
            [good, bad], train, test,
            hyperparameters={"lr": {"learning_rate": -1.0}},
        )
        by_model = {r.cell.model: r for r in results}
        assert by_model[ModelKind.NB].report is not None
        assert by_model[ModelKind.LR].report is None
        assert "ConfigError" in by_model[ModelKind.LR].error

    @pytest.mark.parametrize("hyper", [
        {"nb": {"bogus": 1}}, {"knn": {}}, {"rf": {"n_trees": "many"}},
        {"rf": {"bootstrap": 1}}, {"lr": {"epochs": 2.5}}, {"svm": 3},
    ])
    def test_bad_hyperparameters_rejected_before_training(self, splits, hyper):
        train, test = splits
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        with pytest.raises(ConfigError):
            run_cells([cell], train, test, hyperparameters=hyper)

    def test_empty_splits_rejected(self, synthetic_corpus):
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        with pytest.raises(EmptyInputError):
            run_cells([cell], [], synthetic_corpus[:5])


class TestLeakage:
    def test_vocabulary_ignores_test_rows(self, splits):
        train, test = splits
        train_texts, _ = extract_texts(train, NamePart.FULL, InputVariant.ORIGINAL)
        before = fit_vocabulary(train_texts)
        # Materializing test texts in the same process must not change it.
        test_texts, _ = extract_texts(test, NamePart.FULL, InputVariant.ORIGINAL)
        after = fit_vocabulary(train_texts)
        assert before.tokens == after.tokens
        test_only = set()
        for text in test_texts:
            test_only.update(text.split(" "))
        test_only -= {tok for text in train_texts for tok in text.split(" ")}
        assert not test_only & set(after.tokens)

    def test_reading_dictionary_from_train_only(self, splits):
        train, test = splits
        dictionary, _ = build_reading_dictionary(train)
        train_kanji = {r.kanji for r in train}
        joined = "".join(train_kanji)
        for part in dictionary.given:
            assert part in joined


class TestReportFiles:
    def test_json_and_csv_outputs(self, tmp_path, splits):
        train, test = splits
        cells = [
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL),
            Cell(ModelKind.DT, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL),
        ]
        results = run_cells(cells, train, test, hyperparameters={"dt": {"max_depth": 4}})
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        write_reports_json(json_path, results)
        write_reports_csv(csv_path, results)
        import json

        payload = json.loads(json_path.read_text())
        assert len(payload) == 2
        assert {entry["model"] for entry in payload} == {"nb", "dt"}
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("model,features,variant,part,f1_female")
        assert len(lines) == 3


def test_evaluate_predictions_macro_consistency():
    cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
    report = evaluate_predictions([M, M, F, F], [M, F, F, F], cell)
    assert report.macro_f1 == pytest.approx((report.f1_female + report.f1_male) / 2,
                                            abs=1e-12)


def test_extract_texts_converted_requires_dictionary(reference_records):
    with pytest.raises(MissingDictionaryError):
        extract_texts(reference_records, NamePart.FULL, InputVariant.CONVERTED, None)


def test_converted_full_text_joins_last_and_first(synthetic_corpus):
    reading, _ = build_reading_dictionary(synthetic_corpus)
    texts = {
        part: extract_texts(synthetic_corpus, part, InputVariant.CONVERTED, reading)
        for part in NamePart
    }
    for full, last, first in zip(texts[NamePart.FULL][0], texts[NamePart.LAST][0],
                                 texts[NamePart.FIRST][0]):
        assert full == f"{last} {first}"
    assert texts[NamePart.FULL][1] >= max(texts[NamePart.LAST][1],
                                          texts[NamePart.FIRST][1])


class TestGridConfig:
    @pytest.fixture
    def paths(self, tmp_path):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("romaji,kanji,hiragana,gender\n")
        return {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}

    def test_fields(self, paths):
        grid = ExperimentGrid.from_json_dict({
            **paths, "seed": 3, "cells": [
                {"model": "svm", "features": "tfidf", "variant": "converted",
                 "part": "last"}],
            "hyperparameters": {"svm": {"epochs": 2}},
            "tokenizer": {"mode": "char_ngram", "ngram_min": 2, "ngram_max": 3},
        })
        assert grid.cells == [Cell(ModelKind.SVM, Weighting.TFIDF,
                                   InputVariant.CONVERTED, NamePart.LAST)]
        assert (grid.seed, grid.hyperparameters) == (3, {"svm": {"epochs": 2}})
        assert (grid.tokenizer.ngram_min, grid.tokenizer.ngram_max) == (2, 3)

    @pytest.mark.parametrize("preset,count", [
        (None, 20), ("classical-full", 20), ("ablation", 12), ("all", 28),
    ])
    def test_presets(self, paths, preset, count):
        doc = dict(paths) if preset is None else {**paths, "preset": preset}
        cells = ExperimentGrid.from_json_dict(doc).cells
        assert len(cells) == len(set(cells)) == count

    @pytest.mark.parametrize("change", [
        {"train": "missing.csv"}, {"preset": "nope"}, {"seed": None},
        {"cells": [{"model": "nb"}]}, {"cells": [{"model": "knn", "features": "count",
                                                  "variant": "original", "part": "full"}]},
        {"cells": 5}, {"tokenizer": {"mode": "bytes"}},
        {"hyperparameters": {"nb": {"bogus": 1}}},
    ])
    def test_malformed_configs_raise_config_error(self, paths, change):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_json_dict({**paths, **change})

    @pytest.mark.parametrize("doc", [[], None, "grid", {"train": "x.csv"}])
    def test_non_objects_raise_config_error(self, doc):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_json_dict(doc)

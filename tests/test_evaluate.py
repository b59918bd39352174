import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gendec.evaluate as evaluate
from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import (
    ConfigError,
    EmptyInputError,
    LengthMismatchError,
)
from gendec.evaluate import (
    Cell,
    ConfusionMatrix,
    EvalReport,
    ExperimentGrid,
    ablation_grid,
    accuracy,
    classical_full_grid,
    confusion,
    evaluate_predictions,
    extract_texts,
    f1_scores,
    preset_cells,
    run_cells,
    train_cell_model,
    write_reports_csv,
    write_reports_json,
)
from gendec.models import ModelKind, predict, predict_with_proba
from gendec.name_core import Gender, InputVariant, NamePart
from gendec.translit import build_reading_dictionary
from gendec.vectorize import (
    TokenizerConfig,
    TokenizerMode,
    Weighting,
    fit_vocabulary,
    transform,
)
from tests.conftest import MALFORMED_CONFIG_VALUES, UNREADABLE_GIVEN_RECORDS

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

    def test_all_preset_in_canonical_order(self):
        labels = [cell.label() for cell in sorted(preset_cells("all"), key=Cell.key)]
        assert labels == [
            "nb/count/original/full", "nb/count/converted/full",
            "nb/tfidf/original/full", "nb/tfidf/converted/full",
            "lr/count/original/full", "lr/count/converted/full",
            "lr/tfidf/original/full", "lr/tfidf/converted/full",
            "dt/count/original/full", "dt/count/converted/full",
            "dt/tfidf/original/full", "dt/tfidf/converted/full",
            "rf/count/original/full", "rf/count/converted/full",
            "rf/tfidf/original/first", "rf/tfidf/original/last", "rf/tfidf/original/full",
            "rf/tfidf/converted/first", "rf/tfidf/converted/last", "rf/tfidf/converted/full",
            "svm/count/original/first", "svm/count/original/last", "svm/count/original/full",
            "svm/count/converted/first", "svm/count/converted/last",
            "svm/count/converted/full",
            "svm/tfidf/original/full", "svm/tfidf/converted/full",
        ]

    @pytest.mark.parametrize("name", ["model", "weighting", "variant", "part"])
    def test_cell_fields_must_be_enum_members(self, name):
        # A plain string compares equal to its member, but the package's
        # `is` tests would take the wrong branch for it.
        members = {"model": ModelKind.NB, "weighting": Weighting.TFIDF,
                   "variant": InputVariant.ORIGINAL, "part": NamePart.FULL}
        value = members[name].value
        with pytest.raises(ConfigError) as refused:
            Cell(**{**members, name: value})
        assert str(refused.value) == (
            f"cell {name} must be a {type(members[name]).__name__}, got {value!r}")

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

    def test_unreadable_given_kana_leaves_converted_cells_whole(self):
        # The two katakana given readings are skipped when the dictionary is
        # built, instead of entering it and failing every converted cell.
        cells = [Cell(ModelKind.NB, weighting, InputVariant.CONVERTED, NamePart.FULL)
                 for weighting in Weighting]
        results = run_cells(cells, UNREADABLE_GIVEN_RECORDS, UNREADABLE_GIVEN_RECORDS)
        assert [r.error for r in results] == [None, None]

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
        bad = Cell(ModelKind.RF, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        results = run_cells(  # more sampled columns than the vocabulary has
            [good, bad], train, test,
            hyperparameters={"rf": {"features_per_split": 10 ** 6}},
        )
        by_model = {r.cell.model: r for r in results}
        assert by_model[ModelKind.NB].report is not None
        assert by_model[ModelKind.RF].report is None
        assert "ConfigError" in by_model[ModelKind.RF].error

    @pytest.mark.parametrize("hyper", [
        {"nb": {"bogus": 1}}, {"knn": {}}, {"rf": {"n_trees": "many"}},
        {"rf": {"bootstrap": 1}}, {"lr": {"epochs": 2.5}}, {"svm": 3},
        {"nb": {"alpha": float("nan")}}, {"nb": {"alpha": float("inf")}},
        {"svm": {"lam": float("-inf")}}, [],
    ])
    def test_bad_hyperparameters_rejected_before_training(self, splits, hyper):
        train, test = splits
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        with pytest.raises(ConfigError):
            run_cells([cell], train, test, hyperparameters=hyper)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "42", None])
    def test_bad_seed_rejected_before_training(self, splits, seed, monkeypatch):
        train, test = splits
        cell = Cell(ModelKind.RF, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        monkeypatch.setattr(evaluate, "train_cell_model", None)  # must not be reached
        with pytest.raises(ConfigError):
            run_cells([cell], train, test, seed=seed)
        with pytest.raises(ConfigError):
            ExperimentGrid([cell], "train.csv", "test.csv", seed=seed)

    def test_no_cells_rejected(self, splits):
        train, test = splits
        with pytest.raises(ConfigError):
            run_cells([], train, test)

    def test_empty_splits_rejected(self, synthetic_corpus):
        cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
        with pytest.raises(EmptyInputError):
            run_cells([cell], [], synthetic_corpus[:5])


# Few trees and epochs, so a whole preset trains in about a second.
FAST = {"lr": {"epochs": 20}, "rf": {"n_trees": 3}, "svm": {"epochs": 3}}
TOKENIZERS = {
    "word": TokenizerConfig(),
    "char24": TokenizerConfig(TokenizerMode.CHAR_NGRAM, ngram_min=2, ngram_max=4),
}


def reference_reports(cells, train, test, seed, hyperparameters, tokenizer):
    """``run_cells`` as a plain loop that featurizes every cell on its own."""
    reading, _ = build_reading_dictionary(train)
    y_train = [r.gender for r in train]
    y_test = [r.gender for r in test]
    reports = {}
    for cell in cells:
        train_texts, _ = extract_texts(train, cell.part, cell.variant, reading)
        test_texts, rate = extract_texts(test, cell.part, cell.variant, reading)
        vocab = fit_vocabulary(train_texts, tokenizer, cell.weighting)
        model = train_cell_model(cell.model, transform(train_texts, vocab, cell.weighting),
                                 y_train, seed, hyperparameters.get(cell.model.value))
        y_pred = predict(model, transform(test_texts, vocab, cell.weighting))
        reports[cell] = evaluate_predictions(y_test, y_pred, cell, rate).to_json_dict()
    return reports


@pytest.fixture(scope="module", params=list(TOKENIZERS))
def all_preset_reference(request, splits):
    train, test = splits
    tokenizer = TOKENIZERS[request.param]
    cells = preset_cells("all")
    return tokenizer, reference_reports(cells, train, test, 5, FAST, tokenizer)


class TestSharedFeatures:
    """Each (variant, part) is featurized once per ``run_cells`` and shared."""

    def test_all_preset_equals_per_cell_reference(self, splits, all_preset_reference):
        train, test = splits
        tokenizer, reference = all_preset_reference
        results = run_cells(preset_cells("all"), train, test, seed=5,
                            hyperparameters=FAST, tokenizer=tokenizer)
        assert len(results) == len(reference) == 28
        assert {(c.variant, c.part) for c in reference} == {
            (v, p) for v in InputVariant for p in NamePart}
        assert {r.cell: r.report.to_json_dict() for r in results} == reference

    def test_failing_cells_leave_the_others_unchanged(self, splits, all_preset_reference):
        train, test = splits
        tokenizer, reference = all_preset_reference
        results = run_cells(preset_cells("all"), train, test, seed=5,
                            hyperparameters={**FAST, "rf": {"features_per_split": 10 ** 6}},
                            tokenizer=tokenizer)
        failed = {r.cell: r.error for r in results if r.report is None}
        assert set(failed) == {cell for cell in reference if cell.model is ModelKind.RF}
        assert all("ConfigError" in error for error in failed.values())
        assert {r.cell: r.report.to_json_dict() for r in results
                if r.report is not None} == {
            cell: doc for cell, doc in reference.items() if cell.model is not ModelKind.RF}

    def test_classical_full_featurizes_each_encoding_once(self, splits, monkeypatch):
        train, test = splits
        calls = {"extract_texts": 0, "fit_vocabulary": 0, "transform": 0}

        def counting(name):
            real = getattr(evaluate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluate, name, counting(name))
        results = run_cells(preset_cells("classical-full"), train, test,
                            hyperparameters=FAST)
        assert all(r.report is not None for r in results)
        # 2 variants x (train, test) texts and count matrices, 2 vocabularies.
        assert calls == {"extract_texts": 4, "fit_vocabulary": 2, "transform": 4}

    def test_failed_featurization_is_not_cached(self, splits, monkeypatch):
        train, test = splits
        real = evaluate.transform
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise EmptyInputError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "transform", fails_once)
        cells = [Cell(m, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
                 for m in (ModelKind.NB, ModelKind.LR)]
        first, second = run_cells(cells, train, test, hyperparameters=FAST)
        assert first.report is None and "injected" in first.error
        assert second.report.to_json_dict() == reference_reports(
            cells[1:], train, test, 42, FAST, TokenizerConfig())[cells[1]]

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_train_and_predict_leave_the_matrix_alone(self, splits, kind, weighting):
        train, _test = splits
        texts, _ = extract_texts(train, NamePart.FULL, InputVariant.ORIGINAL)
        X = transform(texts, fit_vocabulary(texts, weighting=Weighting.TFIDF), weighting)
        before = [a.copy() for a in (X.matrix.data, X.matrix.indices, X.matrix.indptr)]
        model = train_cell_model(kind, X, [r.gender for r in train], 3,
                                 FAST.get(kind.value))
        predict_with_proba(model, X)
        after = (X.matrix.data, X.matrix.indices, X.matrix.indptr)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


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

    def test_csv_bytes(self, tmp_path, splits):
        train, test = splits
        cells = [  # one of each value on every axis, given out of order
            Cell(ModelKind.SVM, Weighting.TFIDF, InputVariant.CONVERTED, NamePart.FIRST),
            Cell(ModelKind.RF, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.LAST),
            Cell(ModelKind.DT, Weighting.TFIDF, InputVariant.ORIGINAL, NamePart.FULL),
            Cell(ModelKind.LR, Weighting.COUNT, InputVariant.CONVERTED, NamePart.FULL),
            Cell(ModelKind.NB, Weighting.TFIDF, InputVariant.CONVERTED, NamePart.LAST),
            Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FIRST),
        ]
        csv_path = tmp_path / "report.csv"
        write_reports_csv(csv_path, run_cells(cells, train, test, seed=5,
                                              hyperparameters=FAST))
        assert csv_path.read_bytes() == (
            b"model,features,variant,part,f1_female,f1_male,macro_f1,accuracy,fallback_rate\n"
            b"nb,count,original,first,1.000000,1.000000,1.000000,1.000000,0.000000\n"
            b"nb,tfidf,converted,last,0.523810,0.454545,0.489177,0.491525,0.000000\n"
            b"lr,count,converted,full,0.782051,0.575000,0.678526,0.711864,0.000000\n"
            b"dt,tfidf,original,full,1.000000,1.000000,1.000000,1.000000,0.000000\n"
            b"rf,count,original,last,0.504065,0.460177,0.482121,0.483051,0.000000\n"
            b"svm,tfidf,converted,first,1.000000,1.000000,1.000000,1.000000,0.000000\n"
        )


def test_evaluate_predictions_macro_consistency():
    cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
    report = evaluate_predictions([M, M, F, F], [M, F, F, F], cell)
    assert report.macro_f1 == pytest.approx((report.f1_female + report.f1_male) / 2,
                                            abs=1e-12)


METRICS = ("f1_female", "f1_male", "macro_f1", "accuracy", "degenerate")


@given(counts=st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any),
       metric=st.sampled_from(METRICS))
def test_report_metrics_follow_from_its_confusion(counts, metric):
    """A report's five metrics are those of its confusion matrix; none can be
    passed in."""
    cm = ConfusionMatrix(counts=(tuple(counts[:2]), tuple(counts[2:])))
    cell = Cell(ModelKind.NB, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL)
    report = EvalReport(cell, cm, 0.25)
    scores = f1_scores(cm)
    expected = {"f1_female": scores.f1_female, "f1_male": scores.f1_male,
                "macro_f1": scores.macro_f1, "accuracy": accuracy(cm),
                "degenerate": scores.degenerate}
    assert {name: getattr(report, name) for name in METRICS} == expected
    assert report.fallback_rate == 0.25
    with pytest.raises(TypeError, match=metric):
        EvalReport(cell, cm, **{metric: expected[metric]})


def test_extract_texts_converted_requires_dictionary(reference_records):
    with pytest.raises(ConfigError, match="converted romaji requires a reading dictionary"):
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
        pytest.param({"seed": -1}, id="negative-seed"),
        pytest.param({"seed": 1.5}, id="fractional-seed"),
        pytest.param({"seed": "42"}, id="string-seed"),
        pytest.param({"seed": True}, id="bool-seed"),
        pytest.param({"tokenizer": {"mode": "char_ngram", "ngram_min": 1.5, "ngram_max": 2}},
                     id="fractional-ngram"),
        *MALFORMED_CONFIG_VALUES,
    ])
    def test_malformed_configs_raise_config_error(self, paths, change):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_json_dict({**paths, **change})

    @pytest.mark.parametrize("doc", [[], None, "grid", {"train": "x.csv"}])
    def test_non_objects_raise_config_error(self, doc):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_json_dict(doc)

"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

Quantitative corpus-scale gates (criteria 1-4) need the full production
corpus; point GENDEC_CORPUS at its CSV to run them.  Without it they
skip and the always-runnable property criteria (5-11) stand alone.
A reduced synthetic-scale rehearsal of the same grid machinery runs
unconditionally at the end.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
import os
import string

import numpy as np
import pytest
from click.testing import CliRunner

from gendec.cli import main as cli_main
from gendec.corpus import (
    SplitRatios,
    gender_balance,
    char_frequency,
    homonym_stats,
    split_dataset,
)
from gendec.evaluate import (
    Cell,
    classical_full_grid,
    confusion,
    f1_scores,
    run_cells,
)
from gendec.models import (
    ModelKind,
    predict,
    train_forest,
    train_logistic,
    train_naive_bayes,
    train_tree,
)
from gendec.models.logistic import loss_and_gradient
from gendec.name_core import (
    Gender,
    InputVariant,
    NamePart,
    read_corpus_csv,
    write_corpus_csv,
)
from gendec.translit import kana_consistency_rate, kana_to_romaji
from gendec.vectorize import (
    TokenizerConfig,
    TokenizerMode,
    Weighting,
    fit_vocabulary,
    tokenize,
    transform,
)
from tests.conftest import brute_force_predict, finite_difference_gradient
from tests.test_translit import HEPBURN_PAIRS

F, M = Gender.FEMALE, Gender.MALE

CORPUS_ENV = "GENDEC_CORPUS"
_corpus_path = os.environ.get(CORPUS_ENV)

needs_corpus = pytest.mark.skipif(
    not _corpus_path,
    reason=(
        f"set {CORPUS_ENV} to the built corpus CSV to run corpus-scale "
        "criteria; the property criteria below stand alone"
    ),
)


def check(number: int, description: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {number:02d}] {description}: {status} {detail}".rstrip())
    assert condition, f"criterion {number:02d} failed: {description} {detail}"


@pytest.fixture(scope="module")
def paper_splits():
    records = read_corpus_csv(_corpus_path)
    train, _val, test = split_dataset(records, SplitRatios(0.7, 0.2, 0.1), seed=42)
    return records, train, test


@needs_corpus
def test_criterion_01_original_full_name_bands(paper_splits):
    _records, train, test = paper_splits
    cells = [
        Cell(ModelKind.RF, Weighting.TFIDF, InputVariant.ORIGINAL, NamePart.FULL),
        Cell(ModelKind.SVM, Weighting.COUNT, InputVariant.ORIGINAL, NamePart.FULL),
        Cell(ModelKind.NB, Weighting.TFIDF, InputVariant.ORIGINAL, NamePart.FULL),
    ]
    scores = {
        (r.cell.model, r.cell.weighting): r.report.macro_f1
        for r in run_cells(cells, train, test, seed=42)
    }
    rf = scores[(ModelKind.RF, Weighting.TFIDF)]
    svm = scores[(ModelKind.SVM, Weighting.COUNT)]
    nb = scores[(ModelKind.NB, Weighting.TFIDF)]
    check(1, "original/full macro-F1 bands (rf+tfidf>=0.96, svm+count>=0.96, "
             "nb+tfidf>=0.94)",
          rf >= 0.96 and svm >= 0.96 and nb >= 0.94,
          f"rf={rf:.4f} svm={svm:.4f} nb={nb:.4f}")


@needs_corpus
def test_criterion_02_converted_full_name_band(paper_splits):
    _records, train, test = paper_splits
    cells = [
        cell for cell in classical_full_grid()
        if cell.variant is InputVariant.CONVERTED
    ]
    results = run_cells(cells, train, test, seed=42)
    best = max(r.report.macro_f1 for r in results if r.report is not None)
    check(2, "converted/full best classical macro-F1 >= 0.80", best >= 0.80,
          f"best={best:.4f}")


@needs_corpus
def test_criterion_03_name_part_ablation(paper_splits):
    _records, train, test = paper_splits
    pairs = ((ModelKind.RF, Weighting.TFIDF), (ModelKind.SVM, Weighting.COUNT))
    cells = [
        Cell(model, weighting, InputVariant.ORIGINAL, part)
        for model, weighting in pairs
        for part in (NamePart.FIRST, NamePart.LAST, NamePart.FULL)
    ]
    scores = {
        (r.cell.model, r.cell.part): r.report.macro_f1
        for r in run_cells(cells, train, test, seed=42)
    }
    first_close = all(
        abs(scores[(m, NamePart.FIRST)] - scores[(m, NamePart.FULL)]) <= 0.015
        for m, _w in pairs
    )
    last_low = all(scores[(m, NamePart.LAST)] <= 0.55 for m, _w in pairs)
    check(3, "first within 1.5 points of full and last <= 0.55",
          first_close and last_low,
          " ".join(f"{m.value}:first={scores[(m, NamePart.FIRST)]:.4f},"
                   f"full={scores[(m, NamePart.FULL)]:.4f},"
                   f"last={scores[(m, NamePart.LAST)]:.4f}" for m, _w in pairs))


@needs_corpus
def test_criterion_04_corpus_diagnostics(paper_splits):
    records, _train, _test = paper_splits
    male_share = gender_balance(records)["male"]
    balance_ok = abs(male_share - 0.4984) <= 0.015

    hist = homonym_stats(records)
    concentration_ok = True
    for table in (hist[F], hist[M]):
        total = sum(table.values())
        below_20 = sum(count for k, count in table.items() if k < 20)
        concentration_ok &= total > 0 and below_20 / total >= 0.90

    male_top = [c for c, _n in char_frequency(records, M, NamePart.FIRST)[:20]]
    female_top = [c for c, _n in char_frequency(records, F, NamePart.FIRST)[:20]]
    chars_ok = (
        all(c in male_top for c in "大雄紀")
        and all(c in female_top for c in "子美奈")
    )
    check(4, "balance within 49.84+-1.5% male, homonyms concentrated below 20, "
             "gender-typical top characters",
          balance_ok and concentration_ok and chars_ok,
          f"male={male_share:.4f}")


def test_criterion_05_nb_brute_force_oracle():
    sp = pytest.importorskip("scipy.sparse")
    mismatches = 0
    checked = 0
    # Exhaustive: 1-3 docs over 2 tokens, counts 0..2, all label mixes.
    doc_space = list(itertools.product(range(3), repeat=2))
    probe = sp.csr_matrix(np.array(doc_space, dtype=float))
    for n_docs in (1, 2, 3):
        for docs in itertools.product(doc_space, repeat=n_docs):
            dense = np.array(docs, dtype=float)
            X = sp.csr_matrix(dense)
            for y in itertools.product((F, M), repeat=n_docs):
                if len(set(y)) == 1:
                    continue
                model = train_naive_bayes(X, list(y), alpha=1.0)
                expected = brute_force_predict(dense, list(y), probe.toarray(), 1.0)
                mismatches += predict(model, probe) != expected
                checked += 1
    # Random coverage up to the stated 5-doc / 6-token bound.
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n_docs = int(rng.integers(2, 6))
        n_tokens = int(rng.integers(1, 7))
        dense = rng.integers(0, 4, size=(n_docs, n_tokens)).astype(float)
        y = [M if b else F for b in rng.integers(0, 2, size=n_docs)]
        if len(set(y)) == 1:
            y[0] = F if y[0] is M else M
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        test_dense = rng.integers(0, 4, size=(6, n_tokens)).astype(float)
        model = train_naive_bayes(sp.csr_matrix(dense), y, alpha=alpha)
        expected = brute_force_predict(dense, y, test_dense, alpha)
        mismatches += predict(model, sp.csr_matrix(test_dense)) != expected
        checked += 1
    check(5, "naive Bayes matches brute-force posterior oracle exactly",
          mismatches == 0, f"({checked} instances)")


def test_criterion_06_lr_gradient_and_monotone_loss():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(61)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        V = int(rng.integers(1, 7))
        dense = rng.normal(size=(n, V)) * (rng.random((n, V)) > 0.3)
        matrix = sp.csr_matrix(dense)
        y01 = rng.integers(0, 2, size=n).astype(float)
        weights = rng.normal(scale=0.5, size=V)
        bias = float(rng.normal(scale=0.5))
        l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
        _, grad_w, grad_b = loss_and_gradient(matrix, y01, weights, bias, l2)
        analytic = np.concatenate([grad_w, [grad_b]])
        numeric = finite_difference_gradient(matrix, y01, weights, bias, l2)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst_rel = max(worst_rel, rel)

    monotone = True
    for _ in range(20):
        n = int(rng.integers(4, 16))
        V = int(rng.integers(2, 7))
        dense = rng.normal(size=(n, V))
        dense /= np.linalg.norm(dense, axis=1, keepdims=True)
        y = [M if b else F for b in rng.integers(0, 2, size=n)]
        model = train_logistic(sp.csr_matrix(dense), y, learning_rate=0.1, epochs=50)
        monotone &= bool(np.all(np.diff(model.training_trace) <= 1e-12))

    check(6, "lr gradient within 1e-5 of central differences and "
             "non-increasing loss at lr<=0.1",
          worst_rel <= 1e-5 and monotone, f"worst_rel={worst_rel:.2e}")


def test_criterion_07_vectorizer_oracle_and_norms():
    rng = np.random.default_rng(77)
    alphabet = list(string.ascii_lowercase[:8]) + [" "]
    docs = [
        "".join(rng.choice(alphabet, size=rng.integers(1, 15)))
        for _ in range(1000)
    ]
    mismatch = False
    for config in (TokenizerConfig(),
                   TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 4)):
        vocab = fit_vocabulary(docs, config)
        X = transform(docs, vocab)
        dense = X.matrix.toarray()
        for i, doc in enumerate(docs):
            expected = np.zeros(vocab.size)
            for token in tokenize(doc, config):
                col = vocab.token_to_index.get(token)
                if col is not None:
                    expected[col] += 1
            if not np.array_equal(dense[i], expected):
                mismatch = True
                break

    tfidf_vocab = fit_vocabulary(docs, weighting=Weighting.TFIDF)
    X = transform(docs, tfidf_vocab, Weighting.TFIDF)
    norms = np.linalg.norm(X.matrix.toarray(), axis=1)
    nonzero = np.diff(X.matrix.indptr) > 0
    norms_ok = bool(np.all(np.abs(norms[nonzero] - 1.0) < 1e-9)) and bool(
        np.all(norms[~nonzero] == 0.0)
    )
    check(7, "count transform equals token-count oracle on 1000 random strings "
             "and tfidf rows have unit norm",
          not mismatch and norms_ok)


def test_criterion_08_degenerate_forest_equals_tree():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(88)
    equal = True
    for _ in range(100):
        n = int(rng.integers(2, 14))
        V = int(rng.integers(1, 7))
        dense = rng.random((n, V)) * (rng.random((n, V)) > 0.4)
        X = sp.csr_matrix(dense)
        y = [M if b else F for b in rng.integers(0, 2, size=n)]
        tree = train_tree(X, y)
        forest = train_forest(X, y, n_trees=1, bootstrap=False,
                              features_per_split=V, seed=5)
        probe = sp.csr_matrix(rng.random((6, V)) * (rng.random((6, V)) > 0.4))
        equal &= predict(tree, probe) == predict(forest, probe)
    check(8, "forest(1 tree, no bootstrap, all features) == tree on 100 "
             "random matrices", equal)


def test_criterion_09_transliteration(reference_records):
    six_ok = kana_consistency_rate(reference_records) == 1.0
    failures = [
        (kana, expected, kana_to_romaji(kana))
        for kana, expected in HEPBURN_PAIRS
        if kana_to_romaji(kana) != expected
    ]
    check(9, "kana romanization matches 6/6 reference rows and the 50-entry "
             "rule fixture",
          six_ok and len(HEPBURN_PAIRS) == 50 and not failures,
          f"failures={failures[:3]}")


def test_criterion_10_determinism(tmp_path, fixture_records):
    runner = CliRunner()
    corpus_path = tmp_path / "fixture.csv"
    write_corpus_csv(corpus_path, fixture_records)

    split_outputs = []
    for tag in ("a", "b"):
        args = ["split", "--in", str(corpus_path)]
        for split_name in ("train", "val", "test"):
            args += [f"--{split_name}-out", str(tmp_path / f"{tag}_{split_name}.csv")]
        args += ["--seed", "17"]
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 0, result.output
        split_outputs.append(
            tuple((tmp_path / f"{tag}_{s}.csv").read_bytes()
                  for s in ("train", "val", "test"))
        )
    splits_identical = split_outputs[0] == split_outputs[1]

    models_identical = True
    for kind in ModelKind:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{kind.value}_{tag}.json"
            result = runner.invoke(cli_main, [
                "train", "--model", kind.value, "--features", "count",
                "--train", str(corpus_path), "--out", str(out),
                "--seed", "17", "--n-trees", "4", "--epochs", "4",
            ])
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        models_identical &= blobs[0] == blobs[1]

    check(10, "same-seed reruns give byte-identical splits and model files",
          splits_identical and models_identical)


def test_criterion_11_metrics_oracle():
    rng = np.random.default_rng(110)
    mismatch = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y_true = [M if b else F for b in rng.integers(0, 2, n)]
        y_pred = [M if b else F for b in rng.integers(0, 2, n)]
        scores = f1_scores(confusion(y_true, y_pred))
        for gender, got in ((F, scores.f1_female), (M, scores.f1_male)):
            tp = sum(t is gender and p is gender for t, p in zip(y_true, y_pred))
            fp = sum(t is not gender and p is gender for t, p in zip(y_true, y_pred))
            fn = sum(t is gender and p is not gender for t, p in zip(y_true, y_pred))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            expected = (2 * precision * recall / (precision + recall)
                        if precision + recall else 0.0)
            if abs(got - expected) > 1e-12:
                mismatch += 1
        expected_macro = (scores.f1_female + scores.f1_male) / 2
        if abs(scores.macro_f1 - expected_macro) > 1e-12:
            mismatch += 1

    hand = f1_scores(confusion([M, M, F, F], [M, F, F, F]))
    hand_ok = abs(hand.macro_f1 - 11 / 15) <= 1e-9
    check(11, "f1 matches brute-force recount on 1000 vectors and the hand "
              "example macro-F1 = 0.7333...",
          mismatch == 0 and hand_ok, f"hand={hand.macro_f1:.10f}")


@pytest.fixture(scope="module")
def grid_results(synthetic_corpus):
    train, _val, test = split_dataset(
        synthetic_corpus, SplitRatios(0.7, 0.2, 0.1), seed=42
    )
    cells = classical_full_grid() + [
        Cell(model, weighting, InputVariant.ORIGINAL, part)
        for model, weighting in ((ModelKind.RF, Weighting.TFIDF),
                                 (ModelKind.SVM, Weighting.COUNT))
        for part in (NamePart.FIRST, NamePart.LAST)
    ]
    # Full-batch descent needs a stronger step to converge on a corpus
    # this small; passed through the grid's override mechanism.
    hyper = {"rf": {"n_trees": 20}, "lr": {"learning_rate": 1.0, "epochs": 300}}
    results = run_cells(cells, train, test, seed=42, hyperparameters=hyper)
    assert all(r.report is not None for r in results), [r.error for r in results]
    return {r.cell: r.report for r in results}


class TestSyntheticScaleRehearsal:
    """The corpus-scale grid exercised end to end on the synthetic corpus.

    Not a numbered criterion: bands here confirm the machinery produces
    the expected score ordering (original/full high, last-name near
    chance, converted above 0.8) on data this package can generate.
    """

    def test_original_full_cells_high(self, grid_results):
        for cell, report in grid_results.items():
            if cell.variant is InputVariant.ORIGINAL and cell.part is NamePart.FULL:
                assert report.macro_f1 >= 0.90, (cell.label(), report.macro_f1)

    def test_converted_full_best_above_band(self, grid_results):
        best = max(
            report.macro_f1 for cell, report in grid_results.items()
            if cell.variant is InputVariant.CONVERTED and cell.part is NamePart.FULL
        )
        assert best >= 0.80, best

    def test_last_name_near_chance(self, grid_results):
        for cell, report in grid_results.items():
            if cell.part is NamePart.LAST:
                assert report.macro_f1 <= 0.65, (cell.label(), report.macro_f1)

    def test_first_name_tracks_full_name(self, grid_results):
        for model, weighting in ((ModelKind.RF, Weighting.TFIDF),
                                 (ModelKind.SVM, Weighting.COUNT)):
            first = grid_results[
                Cell(model, weighting, InputVariant.ORIGINAL, NamePart.FIRST)
            ].macro_f1
            full = grid_results[
                Cell(model, weighting, InputVariant.ORIGINAL, NamePart.FULL)
            ].macro_f1
            assert abs(first - full) <= 0.05, (model, first, full)

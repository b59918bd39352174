import json

import pytest
from click.testing import CliRunner

from gendec.cli import main
from gendec.corpus import write_raw_csv
from gendec.name_core import read_corpus_csv, write_corpus_csv
from tests.conftest import make_raw_inventories


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def raw_files(tmp_path):
    firsts, lasts = make_raw_inventories()
    firsts_path = tmp_path / "firsts.csv"
    lasts_path = tmp_path / "lasts.csv"
    write_raw_csv(firsts_path, firsts)
    write_raw_csv(lasts_path, lasts)
    return firsts_path, lasts_path


@pytest.fixture
def corpus_file(tmp_path, synthetic_corpus):
    path = tmp_path / "corpus.csv"
    write_corpus_csv(path, synthetic_corpus)
    return path


@pytest.fixture
def split_files(tmp_path, runner, corpus_file):
    args = [
        "split", "--in", str(corpus_file),
        "--train-out", str(tmp_path / "train.csv"),
        "--val-out", str(tmp_path / "val.csv"),
        "--test-out", str(tmp_path / "test.csv"),
        "--seed", "42",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return tmp_path / "train.csv", tmp_path / "val.csv", tmp_path / "test.csv"


class TestBuildDataset:
    def test_build_writes_corpus_and_metadata(self, runner, raw_files, tmp_path):
        firsts, lasts = raw_files
        out = tmp_path / "corpus.csv"
        result = runner.invoke(main, [
            "build-dataset", "--firsts", str(firsts), "--lasts", str(lasts),
            "--out", str(out), "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        records = read_corpus_csv(out)
        assert records
        meta = json.loads((tmp_path / "corpus.csv.meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["prng"] == "pcg64"
        assert meta["rows"]["total"] == len(records)
        assert "male" in result.output and "female" in result.output

    def test_missing_input_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "build-dataset", "--firsts", str(tmp_path / "nope.csv"),
            "--lasts", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2
        assert "nope.csv" in result.output

    def test_schema_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n", encoding="utf-8")
        result = runner.invoke(main, [
            "build-dataset", "--firsts", str(bad), "--lasts", str(bad),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2


class TestSplit:
    def test_split_deterministic(self, runner, corpus_file, tmp_path):
        outs_a = [tmp_path / f"a_{n}.csv" for n in ("train", "val", "test")]
        outs_b = [tmp_path / f"b_{n}.csv" for n in ("train", "val", "test")]
        for outs in (outs_a, outs_b):
            result = runner.invoke(main, [
                "split", "--in", str(corpus_file),
                "--train-out", str(outs[0]), "--val-out", str(outs[1]),
                "--test-out", str(outs[2]), "--seed", "9",
            ])
            assert result.exit_code == 0, result.output
        for a, b in zip(outs_a, outs_b):
            assert a.read_bytes() == b.read_bytes()

    def test_bad_ratios_exit_2(self, runner, corpus_file, tmp_path):
        result = runner.invoke(main, [
            "split", "--in", str(corpus_file),
            "--train-out", str(tmp_path / "t.csv"),
            "--val-out", str(tmp_path / "v.csv"),
            "--test-out", str(tmp_path / "s.csv"),
            "--ratios", "0.9,0.2,0.1",
        ])
        assert result.exit_code == 2


class TestTrainEvaluatePredict:
    def test_train_evaluate_predict_cycle(self, runner, split_files, tmp_path):
        train_csv, _val, test_csv = split_files
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path), "--seed", "42",
        ])
        assert result.exit_code == 0, result.output

        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(test_csv),
            "--report", str(report_path), "--csv", str(csv_path),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["macro_f1"] <= 1.0
        assert csv_path.read_text().count("\n") == 2

        result = runner.invoke(main, [
            "predict", "--model-file", str(model_path),
            "--name", "Tanaka Satoko",
        ])
        assert result.exit_code == 0, result.output
        fields = result.output.strip().split("\t")
        assert fields[0] == "Tanaka Satoko"
        assert fields[1] in ("female", "male")
        assert 0.5 <= float(fields[2]) <= 1.0

    def test_svm_train_and_predict_has_no_probability(self, runner, split_files,
                                                      tmp_path):
        train_csv, _val, _test = split_files
        model_path = tmp_path / "svm.json"
        result = runner.invoke(main, [
            "train", "--model", "svm", "--features", "tfidf",
            "--train", str(train_csv), "--out", str(model_path),
            "--epochs", "4",
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "predict", "--model-file", str(model_path), "--name", "Tanaka Taro",
        ])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\t")) == 2

    def test_train_twice_byte_identical(self, runner, split_files, tmp_path):
        train_csv, _val, _test = split_files
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            result = runner.invoke(main, [
                "train", "--model", "rf", "--features", "count",
                "--train", str(train_csv), "--out", str(path),
                "--seed", "7", "--n-trees", "5",
            ])
            assert result.exit_code == 0, result.output
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tree_memorizes_training_rows(self, runner, split_files, tmp_path):
        train_csv, _val, _test = split_files
        model_path = tmp_path / "dt.json"
        result = runner.invoke(main, [
            "train", "--model", "dt", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        report_path = tmp_path / "self.json"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(train_csv),
            "--report", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(report_path.read_text())["macro_f1"] == pytest.approx(1.0)

    def test_converted_variant_trains(self, runner, split_files, tmp_path):
        train_csv, _val, test_csv = split_files
        model_path = tmp_path / "conv.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--variant", "converted", "--train", str(train_csv),
            "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(model_path.read_text())["reading_dictionary"] is not None
        report_path = tmp_path / "conv_report.json"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(test_csv),
            "--report", str(report_path),
        ])
        assert result.exit_code == 0, result.output

    def test_empty_test_csv_exits_2(self, runner, split_files, tmp_path):
        train_csv, _val, _test = split_files
        model_path = tmp_path / "m.json"
        runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        empty = tmp_path / "empty.csv"
        empty.write_text("romaji,kanji,hiragana,gender\n", encoding="utf-8")
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(empty),
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 2

    def test_version_mismatch_exits_2(self, runner, split_files, tmp_path):
        train_csv, _val, test_csv = split_files
        model_path = tmp_path / "m.json"
        runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        doc = json.loads(model_path.read_text())
        doc["schema_version"] = 2
        model_path.write_text(json.dumps(doc))
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(test_csv),
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 2

    def test_empty_name_exits_2(self, runner, split_files, tmp_path):
        train_csv, _val, _test = split_files
        model_path = tmp_path / "m.json"
        runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        result = runner.invoke(main, [
            "predict", "--model-file", str(model_path), "--name", "  ",
        ])
        assert result.exit_code == 2

    def test_batch_predict(self, runner, split_files, tmp_path):
        train_csv, _val, _test = split_files
        model_path = tmp_path / "m.json"
        runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        batch = tmp_path / "names.txt"
        batch.write_text("Tanaka Satoko\nSuzuki Taro\n", encoding="utf-8")
        result = runner.invoke(main, [
            "predict", "--model-file", str(model_path), "--batch", str(batch),
        ])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 2


@pytest.fixture
def model_path(runner, split_files, tmp_path):
    path = tmp_path / "rf.json"
    result = runner.invoke(main, [
        "train", "--model", "rf", "--features", "tfidf", "--n-trees", "5",
        "--train", str(split_files[0]), "--out", str(path),
    ])
    assert result.exit_code == 0, result.output
    return path


def _no_traceback(result):
    return result.exception is None or isinstance(result.exception, SystemExit)


class TestPredictPaths:
    NAMES = ["Tanaka Satoko", "  Suzuki   Taro ", "Sato Kazuyoshi"]

    def test_name_and_batch_print_identical_lines(self, runner, model_path, tmp_path):
        batch = tmp_path / "names.txt"
        batch.write_text("\n".join(self.NAMES) + "\n\n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--batch", str(batch)])
        assert result.exit_code == 0, result.output
        singles = []
        for name in self.NAMES:
            one = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                       "--name", name.strip()])
            assert one.exit_code == 0, one.output
            singles.append(one.output)
        assert result.output == "".join(singles)
        assert len(result.output.splitlines()) == len(self.NAMES)

    def test_empty_batch_prints_nothing(self, runner, model_path, tmp_path):
        batch = tmp_path / "empty.txt"
        batch.write_text("\n  \n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--batch", str(batch)])
        assert result.exit_code == 0
        assert result.output == ""

    def test_malformed_batch_line_exits_2_before_printing(self, runner, model_path,
                                                          tmp_path):
        batch = tmp_path / "names.txt"
        batch.write_text("Tanaka Satoko\nTanaka\nSuzuki Taro\n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--batch", str(batch)])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert "'Tanaka'" in result.output


class TestCorruptModelFiles:
    @pytest.fixture(params=["not-json", "missing-keys", "missing-parameter",
                            "wrong-type", "wrong-length", "not-object"])
    def corrupt_model(self, request, model_path):
        doc = json.loads(model_path.read_text())
        if request.param == "not-json":
            model_path.write_text("{not json", encoding="utf-8")
            return model_path
        if request.param == "missing-keys":
            doc = {"schema_version": 1, "model_kind": "rf"}
        elif request.param == "missing-parameter":
            del doc["parameters"]["trees"][0]["threshold"]
        elif request.param == "wrong-type":
            doc["parameters"]["n_trees"] = [5]
        elif request.param == "wrong-length":
            doc["parameters"]["trees"][0]["left"].append(0)
        else:
            doc = [doc]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        return model_path

    def test_predict_exits_2(self, runner, corrupt_model):
        result = runner.invoke(main, ["predict", "--model-file", str(corrupt_model),
                                      "--name", "Tanaka Satoko"])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")

    def test_evaluate_exits_2(self, runner, corrupt_model, split_files, tmp_path):
        report = tmp_path / "r.json"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(corrupt_model),
            "--test", str(split_files[2]), "--report", str(report),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert not report.exists()

    def test_converted_model_without_dictionary_exits_2(self, runner, split_files,
                                                        tmp_path):
        path = tmp_path / "conv.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--variant", "converted",
            "--train", str(split_files[0]), "--out", str(path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads(path.read_text())
        doc["reading_dictionary"] = None
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(path), "--test", str(split_files[2]),
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert "reading dictionary" in result.output


class TestStats:
    def test_homonyms_csv(self, runner, corpus_file, tmp_path):
        out = tmp_path / "homonyms.csv"
        result = runner.invoke(main, [
            "stats", "homonyms", "--in", str(corpus_file),
            "--gender", "female", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "key,count"
        assert len(lines) > 1

    def test_chars_csv(self, runner, corpus_file, tmp_path):
        out = tmp_path / "chars.csv"
        result = runner.invoke(main, [
            "stats", "chars", "--in", str(corpus_file),
            "--gender", "male", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "char,count"
        top_chars = [line.split(",")[0] for line in lines[1:6]]
        assert "大" in top_chars

    def test_chars_empty_corpus(self, runner, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("romaji,kanji,hiragana,gender\n", encoding="utf-8")
        out = tmp_path / "chars.csv"
        result = runner.invoke(main, [
            "stats", "chars", "--in", str(empty), "--gender", "male",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        assert out.read_text() == "char,count\n"

    def test_bad_subcommand_exits_2(self, runner, corpus_file, tmp_path):
        result = runner.invoke(main, [
            "stats", "wordclouds", "--in", str(corpus_file),
            "--gender", "male", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2


class TestTranslit:
    @pytest.mark.parametrize("kana,expected", [
        ("たまいかずよし", "tamaikazuyoshi"),
        ("", ""),
        ("がっこう", "gakkou"),
    ])
    def test_translit(self, runner, kana, expected):
        result = runner.invoke(main, ["translit", "--kana", kana])
        assert result.exit_code == 0
        assert result.output.rstrip("\n") == expected

    def test_unknown_kana_exits_2(self, runner):
        result = runner.invoke(main, ["translit", "--kana", "漢字"])
        assert result.exit_code == 2


class TestGrid:
    def test_grid_with_explicit_cells(self, runner, split_files, tmp_path):
        train_csv, _val, test_csv = split_files
        config = {
            "train": str(train_csv),
            "test": str(test_csv),
            "seed": 42,
            "cells": [
                {"model": "nb", "features": "count", "variant": "original",
                 "part": "full"},
                {"model": "svm", "features": "tfidf", "variant": "original",
                 "part": "last"},
            ],
            "hyperparameters": {"svm": {"epochs": 4}},
        }
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps(config))
        json_out = tmp_path / "reports.json"
        csv_out = tmp_path / "reports.csv"
        result = runner.invoke(main, [
            "grid", "--config", str(config_path),
            "--report-json", str(json_out), "--report-csv", str(csv_out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(json_out.read_text())
        assert len(payload) == 2
        lines = csv_out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_grid_preset(self, runner, split_files, tmp_path):
        train_csv, _val, test_csv = split_files
        config = {
            "train": str(train_csv),
            "test": str(test_csv),
            "preset": "ablation",
            "hyperparameters": {"rf": {"n_trees": 4}, "svm": {"epochs": 2},
                                "lr": {"epochs": 10}},
        }
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps(config))
        result = runner.invoke(main, [
            "grid", "--config", str(config_path),
            "--report-json", str(tmp_path / "r.json"),
            "--report-csv", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "r.json").read_text())
        assert len(payload) == 12

    def test_grid_missing_paths_exit_2(self, runner, tmp_path):
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps({"train": "missing.csv",
                                           "test": "missing.csv"}))
        result = runner.invoke(main, [
            "grid", "--config", str(config_path),
            "--report-json", str(tmp_path / "r.json"),
            "--report-csv", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2

    def _grid(self, runner, tmp_path, config):
        config_path = tmp_path / "grid.json"
        config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        return runner.invoke(main, [
            "grid", "--config", str(config_path),
            "--report-json", str(tmp_path / "r.json"),
            "--report-csv", str(tmp_path / "r.csv"),
        ])

    def test_unknown_hyperparameter_exits_2_without_reports(self, runner, split_files,
                                                            tmp_path):
        train_csv, _val, test_csv = split_files
        result = self._grid(runner, tmp_path, {
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
            "hyperparameters": {"nb": {"bogus": 1}},
        })
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:") and "bogus" in result.output
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("config", [
        "{not json", "[]", {"test": "x"},
        {"cells": [{"model": "nb", "features": "count"}]},
        {"cells": [{"model": "nb", "features": "words", "variant": "original",
                    "part": "full"}]},
        {"preset": "everything"}, {"seed": "forty-two"},
        {"tokenizer": {"mode": "char_ngram", "ngram_min": 4, "ngram_max": 2}},
        {"hyperparameters": {"knn": {"k": 3}}},
        {"hyperparameters": {"rf": {"n_trees": "many"}}},
    ])
    def test_malformed_configs_exit_2(self, runner, split_files, tmp_path, config):
        train_csv, _val, test_csv = split_files
        if isinstance(config, dict):
            config = {"train": str(train_csv), "test": str(test_csv), **config}
        result = self._grid(runner, tmp_path, config)
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert not (tmp_path / "r.json").exists()

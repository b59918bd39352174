import json

import pytest
from click.testing import CliRunner

import gendec.cli as cli
from gendec.cli import main
from gendec.corpus import write_raw_csv
from gendec.errors import NonFiniteError, SchemaError
from gendec.model_io import load_model, save_model
from gendec.name_core import read_corpus_csv, write_corpus_csv
from tests.conftest import (
    MALFORMED_CONFIG_VALUES, UNREADABLE_GIVEN_RECORDS, make_raw_inventories,
)

# JSON nested deeper than the parser's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


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
        """The default one-to-one pairing gives each given name one family;
        cross-k with k 3 gives it three."""
        firsts, lasts = raw_files
        totals = {}
        for pairing, k, flags in (("one-to-one", 1, []),
                                  ("cross-k", 3, ["--pairing", "cross-k", "--k", "3"])):
            out = tmp_path / f"{pairing}.csv"
            result = runner.invoke(main, [
                "build-dataset", "--firsts", str(firsts), "--lasts", str(lasts),
                "--out", str(out), "--seed", "3", *flags,
            ])
            assert result.exit_code == 0, result.output
            records = read_corpus_csv(out)
            assert records
            meta = json.loads((tmp_path / f"{pairing}.csv.meta.json").read_text())
            assert (meta["seed"], meta["pairing"], meta["k"]) == (3, pairing, k)
            assert meta["prng"] == "pcg64"
            assert meta["rows"]["total"] == len(records)
            assert "male" in result.output and "female" in result.output
            totals[pairing] = len(records)
        assert totals["cross-k"] == 3 * totals["one-to-one"]

    def test_k_without_cross_k_pairing_exits_2(self, runner, raw_files, tmp_path):
        # One-to-one pairing draws one family per given name; a k other
        # than 1 would be ignored yet recorded in the sidecar.
        out = tmp_path / "corpus.csv"
        result = runner.invoke(main, [
            "build-dataset", "--firsts", str(raw_files[0]), "--lasts", str(raw_files[1]),
            "--out", str(out), "--pairing", "one-to-one", "--k", "5",
        ])
        assert result.exit_code == 2
        assert result.output.startswith("error:") and "k must be 1, got 5" in result.output
        assert not out.exists()

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
        """nb on word counts and lr on character 2-4-gram counts: train, re-save
        to the same bytes, evaluate with a CSV report, predict by name and by
        batch."""
        train_csv, _val, test_csv = split_files
        names = ["Tanaka Satoko", "Suzuki Taro"]
        batch = tmp_path / "names.txt"
        batch.write_text("\n".join(names) + "\n", encoding="utf-8")
        for flags in (["--model", "nb", "--seed", "42"],
                      ["--model", "lr", "--tokenizer", "char_ngram", "--epochs", "20"]):
            model_path = tmp_path / "model.json"
            result = runner.invoke(main, [
                "train", *flags, "--features", "count",
                "--train", str(train_csv), "--out", str(model_path),
            ])
            assert result.exit_code == 0, result.output
            save_model(tmp_path / "again.json", load_model(model_path))
            assert (tmp_path / "again.json").read_bytes() == model_path.read_bytes()

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

            singles = []
            for name in names:
                result = runner.invoke(main, [
                    "predict", "--model-file", str(model_path), "--name", name,
                ])
                assert result.exit_code == 0, result.output
                fields = result.output.strip().split("\t")
                assert fields[0] == name
                assert fields[1] in ("female", "male")
                assert 0.5 <= float(fields[2]) <= 1.0
                singles.append(result.output)
            result = runner.invoke(main, [
                "predict", "--model-file", str(model_path), "--batch", str(batch),
            ])
            assert result.exit_code == 0, result.output
            assert result.output == "".join(singles)

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

    @pytest.mark.parametrize("alpha", ["5e-324", "1.7e308"])
    def test_nb_alpha_without_finite_log_probabilities_exits_3(self, runner, split_files,
                                                               tmp_path, alpha):
        """No model file is written that ``predict`` would refuse as malformed."""
        model_path = tmp_path / "nb.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--alpha", alpha,
            "--train", str(split_files[0]), "--out", str(model_path),
        ])
        assert result.exit_code == 3
        assert _no_traceback(result)
        assert result.stderr == ("error: naive Bayes feature log-probabilities are not "
                                 f"finite with alpha={float(alpha)!r}\n")
        assert not model_path.exists()

    def _train_nb(self, runner, train_csv, model_path, epoch):
        return runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ], env={"SOURCE_DATE_EPOCH": epoch})

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999"])
    def test_malformed_source_date_epoch_exits_2_before_reading(self, runner, split_files,
                                                                tmp_path, monkeypatch,
                                                                epoch):
        monkeypatch.setattr(cli, "read_corpus_csv", None)  # must not be reached
        model_path = tmp_path / "m.json"
        result = self._train_nb(runner, split_files[0], model_path, epoch)
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.stderr == ("error: SOURCE_DATE_EPOCH must be an integer number of "
                                 f"seconds within the years 1 to 9999, got {epoch!r}\n")
        assert not model_path.exists()

    def test_source_date_epoch_sets_created_at(self, runner, split_files, tmp_path):
        model_path = tmp_path / "m.json"
        result = self._train_nb(runner, split_files[0], model_path, "86400")
        assert result.exit_code == 0, result.output
        metadata = json.loads(model_path.read_text())["metadata"]
        assert metadata["created_at"] == "1970-01-02T00:00:00Z"

    def test_source_date_epoch_before_year_1000_has_a_4_digit_year(self, runner,
                                                                   split_files, tmp_path):
        model_path = tmp_path / "m.json"
        result = self._train_nb(runner, split_files[0], model_path, "-62135596800")
        assert result.exit_code == 0, result.output
        metadata = json.loads(model_path.read_text())["metadata"]
        assert metadata["created_at"] == "0001-01-01T00:00:00Z"

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

    def test_converted_variant_skips_unreadable_given_kana(self, runner, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_corpus_csv(train_csv, UNREADABLE_GIVEN_RECORDS)
        model_path = tmp_path / "conv.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--variant", "converted",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        given = json.loads(model_path.read_text())["reading_dictionary"]["given"]
        assert given == {"和善": [["かずよし", 1]], "智子": [["ともこ", 1]]}

    def test_dict_option_is_a_usage_error(self, runner, split_files, tmp_path):
        """A converted model's dictionary comes only from its training CSV."""
        dictionary = tmp_path / "dict.json"
        dictionary.write_text(json.dumps({"family": {}, "given": {}}))
        model_path = tmp_path / "conv.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--variant", "converted",
            "--train", str(split_files[0]), "--out", str(model_path),
            "--dict", str(dictionary),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert "No such option '--dict'" in result.stderr
        assert not model_path.exists()

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
        """A version 1 file, which stored fields the loader now rebuilds, is
        refused with one message that says to retrain."""
        train_csv, _val, test_csv = split_files
        model_path = tmp_path / "m.json"
        runner.invoke(main, [
            "train", "--model", "nb", "--features", "count",
            "--train", str(train_csv), "--out", str(model_path),
        ])
        doc = json.loads(model_path.read_text())
        doc["schema_version"] = 1
        model_path.write_text(json.dumps(doc))
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(model_path), "--test", str(test_csv),
            "--report", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output == ("error: malformed model file: schema_version must be 2, "
                                 "got 1; retrain the model\n")

    @pytest.mark.parametrize("flags", [
        ["--model", "nb", "--alpha", "nan"],
        ["--model", "nb", "--alpha", "inf"],
        ["--model", "svm", "--lam", "-inf"],
        ["--model", "rf", "--max-depth", "0"],
        ["--model", "rf", "--min-samples-leaf", "-1"],
    ], ids=["nan-alpha", "infinite-alpha", "infinite-lam", "rf-depth-0", "rf-leaf-neg"])
    def test_bad_hyperparameter_flag_exits_2_without_model(self, runner, split_files,
                                                           tmp_path, flags):
        model_path = tmp_path / "m.json"
        result = runner.invoke(main, [
            "train", *flags, "--features", "count",
            "--train", str(split_files[0]), "--out", str(model_path),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert not model_path.exists()

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


def _train_tfidf(runner, train_csv, path, kind="rf"):
    result = runner.invoke(main, [
        "train", "--model", kind, "--features", "tfidf",
        *(["--n-trees", "5"] if kind == "rf" else []),
        "--train", str(train_csv), "--out", str(path),
    ])
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture
def model_path(runner, split_files, tmp_path):
    return _train_tfidf(runner, split_files[0], tmp_path / "rf.json")


def _no_traceback(result):
    return result.exception is None or isinstance(result.exception, SystemExit)


class TestPredictPaths:
    NAMES = ["Tanaka Satoko", "  Suzuki   Taro ", "Sato Kazuyoshi"]

    def test_name_and_batch_print_identical_lines(self, runner, model_path, tmp_path):
        singles = []
        for name in self.NAMES:
            one = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                       "--name", name.strip()])
            assert one.exit_code == 0, one.output
            singles.append(one.output)
        # A leading byte-order mark is not part of the first name.
        for bom in ("", "\ufeff"):
            batch = tmp_path / "names.txt"
            batch.write_text(bom + "\n".join(self.NAMES) + "\n\n", encoding="utf-8")
            result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                          "--batch", str(batch)])
            assert result.exit_code == 0, result.output
            assert result.output == "".join(singles)
            assert len(result.output.splitlines()) == len(self.NAMES)

    def test_name_without_known_tokens_warns_on_stderr(self, runner, model_path):
        known = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                     "--name", "Tanaka Satoko"])
        assert known.exit_code == 0 and known.stderr == ""
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--name", "Zzzz Qqqq"])
        assert result.exit_code == 0
        assert result.stdout.startswith("Zzzz Qqqq\t")
        assert len(result.stdout.splitlines()) == 1
        assert result.stderr == ("warning: 'Zzzz Qqqq' has no token the model knows; "
                                 "its prediction does not depend on the name\n")

    def test_batch_warns_once_per_name_without_known_tokens(self, runner, model_path,
                                                             tmp_path):
        names = ["Zzzz Qqqq", "Tanaka Satoko", "Zzzz Satoko", "Xxxx Yyyy"]
        batch = tmp_path / "names.txt"
        batch.write_text("\n".join(names) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--batch", str(batch)])
        assert result.exit_code == 0
        singles = [runner.invoke(main, ["predict", "--model-file", str(model_path),
                                        "--name", name]).stdout for name in names]
        assert result.stdout == "".join(singles)
        warnings = result.stderr.splitlines()
        assert [line.split("'")[1] for line in warnings] == ["Zzzz Qqqq", "Xxxx Yyyy"]
        assert all(line.startswith("warning: ") for line in warnings)

    def test_empty_batch_exits_2(self, runner, model_path, tmp_path):
        # A batch with no names is an input error, not a silent success.
        batch = tmp_path / "empty.txt"
        for text in ("", "\n  \n\r\n"):
            batch.write_text(text, encoding="utf-8")
            result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                          "--batch", str(batch)])
            assert result.exit_code == 2
            assert (result.stdout, result.stderr) == ("", f"error: {batch} holds no names\n")

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

    @pytest.mark.parametrize("name", ["Tamai 123", "Tamai Kazu-yoshi", "Tamai Kazuyōshi"])
    def test_name_outside_the_corpus_rule_exits_2(self, runner, model_path, tmp_path, name):
        """A name is ASCII letters as 'Family Given', as a corpus row is."""
        batch = tmp_path / "names.txt"
        batch.write_text(f"Tanaka Satoko\n{name}\n", encoding="utf-8")
        for source in (["--name", name], ["--batch", str(batch)]):
            result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                          *source])
            assert result.exit_code == 2
            assert _no_traceback(result)
            assert result.stdout == ""
            assert result.stderr == f"error: expected 'Family Given', got {name!r}\n"


# Malformed trees, each written into a dt file and into an rf file's first tree.
TREE_CASES = ["cycle", "child-out-of-range", "right-past-end", "shared-children",
              "orphan-node", "column-out-of-range", "max-depth-0", "zero-counts", "negative-count",
              "leaf-0"]
# Stored hyperparameters that break their value rule: case -> (key, value).
VALUE_CASES = {"nb-alpha-negative": ("alpha", -1), "lr-epochs-0": ("epochs", 0),
               "svm-lam-0": ("lam", 0), "svm-epochs-0": ("epochs", 0)}


class TestCorruptModelFiles:
    @pytest.fixture(params=["not-json", "missing-keys", "missing-parameter",
                            "wrong-type", "wrong-length", "not-object", "nested-deep",
                            "huge-number",
                            *(f"{kind}-{case}" for kind in ("dt", "rf")
                              for case in TREE_CASES),
                            "bootstrap-string", "seed-string", "fractional-leaf",
                            "unknown-key", "misspelled-parameter",
                            "duplicate-token", "integer-token", "swapped-tokens",
                            "trees-string", "trees-empty", "trees-null",
                            "tfidf-without-idf", "nb-log-prob-flat",
                            "nb-log-prob-one-row", *VALUE_CASES])
    def corrupt_model(self, request, runner, split_files, tmp_path):
        kind = request.param.split("-")[0]
        kind = kind if kind in ("nb", "lr", "dt", "svm") else "rf"
        model_path = _train_tfidf(runner, split_files[0], tmp_path / f"{kind}.json", kind)
        doc = json.loads(model_path.read_text())
        params = doc["parameters"]
        nodes = params["nodes"] if kind == "dt" else params.get("trees", [None])[0]
        case = request.param.removeprefix(f"{kind}-")
        texts = {"not-json": "{not json", "nested-deep": DEEP_JSON}
        if case in texts:
            model_path.write_text(texts[case], encoding="utf-8")
            return model_path
        if request.param in VALUE_CASES:
            key, value = VALUE_CASES[request.param]
            params[key] = value
        elif case == "missing-keys":
            doc = {"schema_version": 2, "model_kind": "rf"}
        elif case == "missing-parameter":
            del doc["parameters"]["trees"][0]["threshold"]
        elif case == "wrong-type":
            doc["parameters"]["features_per_split"] = [5]
        elif case == "wrong-length":
            doc["parameters"]["trees"][0]["left"].append(0)
        elif case == "huge-number":
            doc["vocabulary"]["idf"][0] = 10 ** 400
        elif case == "cycle":
            nodes["left"][0] = 0
        elif case == "child-out-of-range":
            nodes["left"][0] = len(nodes["feature"]) + 5
        elif case == "right-past-end":  # the right child would be node n_nodes
            nodes["left"][0] = len(nodes["feature"]) - 1
        elif case == "shared-children":  # inner nodes 1 and 2 both own nodes 3 and 4
            nodes.update(feature=[0, 1, 1, -1, -1], threshold=[0.5] * 5,
                         left=[1, 3, 3, -1, -1], count_female=[1] * 5, count_male=[1] * 5)
        elif case == "orphan-node":  # node 3 is no node's child
            nodes.update(feature=[0, -1, -1, -1], threshold=[0.5] * 4, left=[1, -1, -1, -1],
                         count_female=[1] * 4, count_male=[1] * 4)
        elif case == "column-out-of-range":
            nodes["feature"][0] = 10 ** 6
        elif case == "max-depth-0":
            params["max_depth"] = 0
        elif case == "leaf-0":
            params["min_samples_leaf"] = 0
        elif case == "zero-counts":
            leaf = nodes["feature"].index(-1)
            nodes["count_female"][leaf] = nodes["count_male"][leaf] = 0
        elif case == "negative-count":
            nodes["count_female"][0] = -3
        elif case == "bootstrap-string":
            params["bootstrap"] = "false"
        elif case == "seed-string":
            params["seed"] = "7"
        elif case == "fractional-leaf":
            params["min_samples_leaf"] = 1.9
        elif case == "unknown-key":
            doc["bogus"] = 1
        elif case == "misspelled-parameter":
            params["n_treez"] = 9
        elif case == "trees-string":
            params["trees"] = "garbage"
        elif case == "trees-empty":
            params["trees"] = []
        elif case == "trees-null":
            params["trees"] = None
        elif case in ("log-prob-flat", "log-prob-one-row"):  # 2 x V numbers, not 2 rows
            flat = [value for row in params["feature_log_prob"] for value in row]
            params["feature_log_prob"] = flat if case == "log-prob-flat" else [flat]
        elif case == "tfidf-without-idf":
            doc["vocabulary"]["idf"] = None
        elif case == "duplicate-token":
            doc["vocabulary"]["tokens"][1] = doc["vocabulary"]["tokens"][0]
        elif case == "integer-token":
            doc["vocabulary"]["tokens"][-1] = 7
        elif case == "swapped-tokens":
            tokens = doc["vocabulary"]["tokens"]
            tokens[0], tokens[1] = tokens[1], tokens[0]
        else:
            doc = [doc]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        return model_path

    @staticmethod
    def _names_model_file(output, path):
        """The error is about the file: it names the path or the model file."""
        return str(path) in output or "model file" in output

    def test_predict_exits_2(self, runner, corrupt_model):
        result = runner.invoke(main, ["predict", "--model-file", str(corrupt_model),
                                      "--name", "Tanaka Satoko"])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert self._names_model_file(result.output, corrupt_model)

    def test_evaluate_exits_2(self, runner, corrupt_model, split_files, tmp_path):
        report = tmp_path / "r.json"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(corrupt_model),
            "--test", str(split_files[2]), "--report", str(report),
        ])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.output.startswith("error:")
        assert self._names_model_file(result.output, corrupt_model)
        assert not report.exists()

    def test_forest_file_tree_count_is_its_trees_length(self, runner, model_path):
        """A forest file stores no tree count: cutting its trees list to one
        tree gives a one-tree forest, whose vote is that tree's leaf."""
        doc = json.loads(model_path.read_text())
        doc["parameters"]["trees"] = doc["parameters"]["trees"][:1]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        forest = load_model(model_path).model
        assert forest.n_trees == 1
        result = runner.invoke(main, ["predict", "--model-file", str(model_path),
                                      "--name", "Tanaka Satoko"])
        assert result.exit_code == 0, result.output
        assert result.output.rstrip("\n").split("\t")[2] == "1.000000"

    @pytest.mark.parametrize("readings", [[["zzz", -5]], [], [["a", 1], ["b", 2]],
                                          [["zzz", 1]], [["ー", 1]]],
                             ids=["negative-count", "empty", "out-of-order",
                                  "not-kana", "no-romaji"])
    def test_converted_model_with_bad_readings_exits_2(self, runner, split_files, tmp_path,
                                                       readings):
        path = tmp_path / "conv.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--variant", "converted",
            "--train", str(split_files[0]), "--out", str(path),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads(path.read_text())
        doc["reading_dictionary"]["given"]["子"] = readings
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(path),
                                      "--name", "Tanaka Satoko"])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert "malformed reading dictionary" in result.output

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


# Where a non-finite value is written into each kind's model file, as a
# key/index path into its "parameters": array entries and scalars.
NON_FINITE_SITES = {
    "nb": [("feature_log_prob", 0, 0), ("class_log_prior", 1), ("alpha",)],
    "lr": [("weights", 0), ("training_trace", 0), ("bias",)],
    "dt": [("nodes", "threshold", 0)],
    "rf": [("trees", 0, "threshold", 0)],
    "svm": [("weights", 0), ("lam",)],
}
NON_FINITE_CASES = [
    pytest.param((kind, path, value), id=f"{kind}-{'.'.join(map(str, path))}-{value}")
    for kind, sites in NON_FINITE_SITES.items()
    for path in (*(("parameters", *site) for site in sites), ("vocabulary", "idf", 0))
    for value in ("nan", "inf")
]


@pytest.fixture(scope="module")
def kind_model_files(tmp_path_factory, synthetic_corpus):
    """One TF-IDF model file per kind, plus a test CSV for evaluate."""
    root = tmp_path_factory.mktemp("kinds")
    train_csv, test_csv = root / "train.csv", root / "test.csv"
    write_corpus_csv(train_csv, synthetic_corpus[::3])
    write_corpus_csv(test_csv, synthetic_corpus[1::50])
    paths = {}
    for kind in NON_FINITE_SITES:
        paths[kind] = root / f"{kind}.json"
        result = CliRunner().invoke(main, [
            "train", "--model", kind, "--features", "tfidf", "--n-trees", "2",
            "--epochs", "5", "--train", str(train_csv), "--out", str(paths[kind]),
        ])
        assert result.exit_code == 0, result.output
    return paths, test_csv


class TestNonFiniteModelFiles:
    @pytest.fixture(params=NON_FINITE_CASES)
    def non_finite_model(self, request, kind_model_files, tmp_path):
        kind, site, value = request.param
        doc = json.loads(kind_model_files[0][kind].read_text())
        parent = doc
        for key in site[:-1]:
            parent = parent[key]
        parent[site[-1]] = float(value)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_predict_exits_2(self, runner, non_finite_model):
        result = runner.invoke(main, ["predict", "--model-file", str(non_finite_model),
                                      "--name", "Tanaka Satoko"])
        assert result.exit_code == 2, result.output
        assert _no_traceback(result)
        assert result.output.startswith("error: malformed model file")

    def test_evaluate_exits_2(self, runner, non_finite_model, kind_model_files, tmp_path):
        report = tmp_path / "r.json"
        result = runner.invoke(main, [
            "evaluate", "--model-file", str(non_finite_model),
            "--test", str(kind_model_files[1]), "--report", str(report),
        ])
        assert result.exit_code == 2, result.output
        assert _no_traceback(result)
        assert not report.exists()

    def test_single_class_nb_round_trips(self, runner, synthetic_corpus, tmp_path):
        """Every kind trained on one class prints one warning line, and its
        file loads, re-saves and predicts that class.  Only the prior of the
        class a single-class nb model never saw may be -Infinity."""
        train_csv = tmp_path / "female.csv"
        write_corpus_csv(train_csv, [r for r in synthetic_corpus
                                     if r.gender.value == "female"])
        for kind in ("lr", "dt", "rf", "svm", "nb"):
            path = tmp_path / f"{kind}.json"
            result = runner.invoke(main, [
                "train", "--model", kind, "--features", "count", "--train", str(train_csv),
                "--out", str(path), *(["--n-trees", "3"] if kind == "rf" else [])])
            assert result.exit_code == 0, result.output
            assert result.stderr == ("warning: training labels contain a single class; "
                                     "predictions are constant\n"), kind
            save_model(tmp_path / "again.json", load_model(path))
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), kind
            result = runner.invoke(main, ["predict", "--model-file", str(path),
                                          "--name", "Suzuki Taro"])
            assert result.exit_code == 0, result.output
            assert result.output.rstrip("\n").split("\t")[1] == "female", kind
        doc = json.loads(path.read_text())
        assert doc["parameters"]["class_log_prior"] == [0.0, float("-inf")]

        doc["parameters"]["class_log_prior"] = [float("-inf")] * 2
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["predict", "--model-file", str(path),
                                      "--name", "Suzuki Taro"])
        assert result.exit_code == 2, result.output
        assert result.output == ("error: malformed model file: ValueError: at most one "
                                 "class log prior may be -Infinity\n")


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

    def test_warning_is_one_line_without_a_source_path(self, runner):
        result = runner.invoke(main, ["translit", "--kana", "かっ"])
        assert result.exit_code == 0
        assert result.stdout == "katsu\n"
        assert result.stderr == "warning: trailing sokuon rendered literally\n"

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

    def test_converted_cells_match_train_and_evaluate(self, runner, split_files, tmp_path):
        """A grid cell's report is, byte for byte, the report that ``train``
        and ``evaluate`` write for the same cell, seed, tokenizer and
        hyperparameters: every kind, weighting, variant and part, on word
        tokens and on character 2-4-grams."""
        train_csv, _val, test_csv = split_files
        grids = [
            ({"mode": "word", "ngram_min": 1, "ngram_max": 1},
             [("rf", "tfidf", "converted", "first"), ("nb", "count", "converted", "full"),
              ("svm", "tfidf", "converted", "last"), ("lr", "count", "original", "first"),
              ("dt", "tfidf", "original", "full")]),
            ({"mode": "char_ngram", "ngram_min": 2, "ngram_max": 4},
             [("lr", "tfidf", "converted", "last")]),
        ]
        # train ignores the flags a kind does not take.
        flags = ["--n-trees", "3", "--epochs", "3", "--seed", "5"]
        for tokenizer, cells in grids:
            result = self._grid(runner, tmp_path, {
                "train": str(train_csv), "test": str(test_csv), "seed": 5,
                "cells": [{"model": model, "features": features, "variant": variant,
                           "part": part} for model, features, variant, part in cells],
                "hyperparameters": {"rf": {"n_trees": 3}, "svm": {"epochs": 3},
                                    "lr": {"epochs": 3}},
                "tokenizer": tokenizer,
            })
            assert result.exit_code == 0, result.output
            entries = {(e["model"], e["features"], e["variant"], e["part"]): e
                       for e in json.loads((tmp_path / "r.json").read_text())}
            assert set(entries) == set(cells)
            tokenizer_flags = ["--tokenizer", tokenizer["mode"],
                               "--ngram-min", str(tokenizer["ngram_min"]),
                               "--ngram-max", str(tokenizer["ngram_max"])]
            for (model, features, variant, part), entry in entries.items():
                model_path = tmp_path / "model.json"
                report_path = tmp_path / "report.json"
                for args in (["train", "--model", model, "--features", features,
                              "--variant", variant, "--part", part, *flags,
                              *tokenizer_flags, "--train", str(train_csv),
                              "--out", str(model_path)],
                             ["evaluate", "--model-file", str(model_path),
                              "--test", str(test_csv), "--report", str(report_path)]):
                    result = runner.invoke(main, args)
                    assert result.exit_code == 0, result.output
                expected = json.dumps(entry, indent=2, sort_keys=True) + "\n"
                assert report_path.read_bytes() == expected.encode()

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

    def test_single_class_split_warns_once(self, runner, synthetic_corpus, split_files,
                                           tmp_path):
        """The condition belongs to the training split that every cell shares,
        so a grid prints its warning once, whichever kinds it trains."""
        train_csv = tmp_path / "female.csv"
        write_corpus_csv(train_csv, [r for r in synthetic_corpus
                                     if r.gender.value == "female"])
        result = self._grid(runner, tmp_path, {
            "train": str(train_csv), "test": str(split_files[2]),
            "cells": [{"model": "rf", "features": features, "variant": "original",
                       "part": part} for features in ("count", "tfidf")
                      for part in ("full", "first")],
            "hyperparameters": {"rf": {"n_trees": 3}},
        })
        assert result.exit_code == 0, result.output
        assert result.stderr == ("warning: training labels contain a single class; "
                                 "predictions are constant\n")

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
        pytest.param(DEEP_JSON, id="nested-deep"),
        pytest.param({"seed": float("inf")}, id="infinite-seed"),
        pytest.param({"train": "."}, id="train-is-directory"),
        pytest.param({"seed": -1}, id="negative-seed"),
        pytest.param({"seed": 1.5}, id="fractional-seed"),
        pytest.param({"seed": "42"}, id="string-seed"),
        pytest.param({"seed": True}, id="bool-seed"),
        pytest.param({"hyperparameters": {"rf": {"exhaust_on_miss": True}}},
                     id="removed-rf-knob"),
        pytest.param({"tokenizer": {"mode": "char_ngram", "ngram_min": 1.5, "ngram_max": 2}},
                     id="fractional-ngram"),
        # A value its rule refuses fails the run before any cell trains.
        pytest.param({"hyperparameters": {"rf": {"max_depth": 0}}}, id="forest-depth-0"),
        pytest.param({"hyperparameters": {"rf": {"n_trees": 0}}}, id="zero-trees"),
        *MALFORMED_CONFIG_VALUES,
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
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("hyperparameters,code", [
        ({"rf": {"features_per_split": 10 ** 6}}, 2),  # above the vocabulary size
        ({"lr": {"learning_rate": 1e308, "l2": 1e308, "epochs": 3}}, 3),
    ], ids=["config-error", "non-finite"])
    def test_failed_cell_writes_reports_then_exits_nonzero(self, runner, split_files,
                                                           tmp_path, hyperparameters,
                                                           code):
        train_csv, _val, test_csv = split_files
        model = next(iter(hyperparameters))
        result = self._grid(runner, tmp_path, {
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": m, "features": "count", "variant": "original",
                       "part": "full"} for m in ("nb", model)],
            "hyperparameters": hyperparameters,
        })
        assert result.exit_code == code
        assert _no_traceback(result)
        assert "nb/count/original/full: macro_f1=" in result.stdout
        assert f"{model}/count/original/full: FAILED" in result.stdout
        assert "error: 1 of 2 grid cells failed" in result.stderr
        entries = json.loads((tmp_path / "r.json").read_text())
        assert [("error" in e) for e in entries] == [False, True]
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 2

    def test_nb_alpha_without_finite_log_probabilities_fails_its_cell(self, runner,
                                                                      split_files, tmp_path):
        """The grid reports no cell whose model ``train`` could not write."""
        train_csv, _val, test_csv = split_files
        result = self._grid(runner, tmp_path, {
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": m, "features": "count", "variant": "original",
                       "part": "full"} for m in ("nb", "lr")],
            "hyperparameters": {"nb": {"alpha": 5e-324}},
        })
        assert result.exit_code == 3
        assert _no_traceback(result)
        assert ("nb/count/original/full: FAILED (NonFiniteError: naive Bayes feature "
                "log-probabilities are not finite with alpha=5e-324)") in result.stdout
        assert "lr/count/original/full: macro_f1=" in result.stdout
        assert result.stderr == "error: 1 of 2 grid cells failed\n"
        entries = json.loads((tmp_path / "r.json").read_text())
        assert [("error" in e) for e in entries] == [True, False]


NOT_UTF8_CORPUS = b"romaji,kanji,hiragana,gender\nTanaka Satoko,\xff\xfe,x,female\n"
NOT_UTF8_RAW = b"romaji,hiragana,kanji,gender,role\nsatoko,\xff,x,female,given\n"


class TestBadFiles:
    """Every file a command reads is checked: a bad one exits 2 with an
    ``error:`` line, no traceback and no output file."""

    @pytest.fixture
    def files(self, runner, tmp_path, split_files, raw_files, model_path):
        train_csv, _val, test_csv = split_files
        paths = {"model": model_path, "lasts": raw_files[1], "train": train_csv,
                 "test": test_csv, "out": tmp_path / "out.txt",
                 "out2": tmp_path / "out2.txt", "out3": tmp_path / "out3.txt"}
        contents = {
            "bad_corpus": NOT_UTF8_CORPUS,
            "bad_raw": NOT_UTF8_RAW,
            "bad_batch": b"Tanaka Satoko\nSuzuki \xff\xfe\n",
        }
        for name, data in contents.items():
            paths[name] = tmp_path / f"{name}.bin"
            paths[name].write_bytes(data)
        # A reading dictionary is read only as the table a converted model
        # file embeds: each of these files embeds one bad table.
        tables = {
            "dict_list": [],
            "dict_no_family": {"given": {}},
            "dict_negative_count": {"family": {}, "given": {"子": [["zzz", -5]]}},
            # No training record uses 龘, so only the load check can refuse it.
            "dict_not_kana": {"family": {}, "given": {"龘": [["zzz", 1]]}},
        }
        converted = tmp_path / "converted.json"
        result = runner.invoke(main, [
            "train", "--model", "nb", "--features", "count", "--variant", "converted",
            "--train", str(train_csv), "--out", str(converted),
        ])
        assert result.exit_code == 0, result.output
        for name, table in tables.items():
            doc = json.loads(converted.read_text())
            doc["reading_dictionary"] = table
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        paths["bad_grid"] = tmp_path / "grid.json"
        paths["bad_grid"].write_text(json.dumps({
            "train": str(paths["bad_corpus"]), "test": str(test_csv),
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
        }), encoding="utf-8")
        return paths

    _TRAIN = ["train", "--model", "nb", "--features", "count", "--out", "{out}"]
    _EVALUATE = ["evaluate", "--test", "{test}", "--report", "{out}", "--model-file"]

    @pytest.mark.parametrize("args", [
        ["split", "--in", "{bad_corpus}", "--train-out", "{out}",
         "--val-out", "{out2}", "--test-out", "{out3}"],
        [*_TRAIN, "--train", "{bad_corpus}"],
        ["evaluate", "--model-file", "{model}", "--test", "{bad_corpus}",
         "--report", "{out}"],
        ["grid", "--config", "{bad_grid}", "--report-json", "{out}",
         "--report-csv", "{out2}"],
        ["build-dataset", "--firsts", "{bad_raw}", "--lasts", "{lasts}", "--out", "{out}"],
        [*_EVALUATE, "{dict_list}"],
        [*_EVALUATE, "{dict_no_family}"],
        ["predict", "--model-file", "{model}", "--batch", "{bad_batch}"],
        [*_EVALUATE, "{dict_negative_count}"],
        [*_EVALUATE, "{dict_not_kana}"],
    ], ids=["split-corpus-not-utf8", "train-corpus-not-utf8", "evaluate-test-not-utf8",
            "grid-train-not-utf8", "build-dataset-raw-not-utf8", "dict-list",
            "dict-no-family", "predict-batch-not-utf8", "dict-negative-count",
            "dict-not-kana"])
    def test_exits_2(self, runner, files, args):
        result = runner.invoke(main, [arg.format(**files) for arg in args])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert not files["out"].exists()


class TestCollidingPaths:
    """An output path that equals an input or another output (a metadata
    sidecar included) exits 2 before any corpus or model is read and before
    anything is written."""

    @pytest.fixture
    def files(self, tmp_path, split_files, raw_files, corpus_file, model_path):
        train_csv, _val, test_csv = split_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
        }), encoding="utf-8")
        return {"firsts": raw_files[0], "lasts": raw_files[1], "corpus": corpus_file,
                "train": train_csv, "test": test_csv, "model": model_path, "grid": grid,
                "out": tmp_path / "out.csv", "out2": tmp_path / "out2.csv",
                "out3": tmp_path / "out3.csv"}

    @pytest.mark.parametrize("args", [
        ["build-dataset", "--firsts", "{firsts}", "--lasts", "{lasts}", "--out", "{lasts}"],
        ["split", "--in", "{corpus}", "--train-out", "{out}", "--val-out", "{out2}",
         "--test-out", "{out}"],
        ["split", "--in", "{corpus}", "--train-out", "{out}",
         "--val-out", "{out}.meta.json", "--test-out", "{out3}"],
        ["train", "--model", "nb", "--features", "count", "--train", "{train}",
         "--out", "{train}"],
        ["evaluate", "--model-file", "{model}", "--test", "{test}", "--report", "{model}"],
        ["evaluate", "--model-file", "{model}", "--test", "{test}", "--report", "{out}",
         "--csv", "{out}"],
        ["stats", "chars", "--in", "{corpus}", "--gender", "male", "--out", "{corpus}"],
        ["grid", "--config", "{grid}", "--report-json", "{out}", "--report-csv", "{out}"],
        ["grid", "--config", "{grid}", "--report-json", "{out}", "--report-csv", "{test}"],
    ], ids=["build-dataset-out-is-lasts", "split-train-is-test", "split-val-is-sidecar",
            "train-out-is-train", "evaluate-report-is-model", "evaluate-report-is-csv",
            "stats-out-is-in", "grid-json-is-csv", "grid-csv-is-test"])
    def test_exits_2_and_leaves_every_file(self, runner, files, tmp_path, args):
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        result = runner.invoke(main, [arg.format(**files) for arg in args])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "is both an output" in result.stderr
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before


class TestMissingOutputDirectory:
    """An output under a directory that does not exist exits 2 before any
    corpus or model is read, and no file is written (for grid, neither
    report)."""

    @pytest.fixture
    def files(self, tmp_path, split_files, raw_files, corpus_file, model_path):
        train_csv, _val, test_csv = split_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
        }), encoding="utf-8")
        return {"firsts": raw_files[0], "lasts": raw_files[1], "corpus": corpus_file,
                "train": train_csv, "test": test_csv, "model": model_path, "grid": grid,
                "out": tmp_path / "out.csv", "out2": tmp_path / "out2.csv",
                "missing": tmp_path / "missing" / "out.csv"}

    @pytest.mark.parametrize("args", [
        ["build-dataset", "--firsts", "{firsts}", "--lasts", "{lasts}", "--out", "{missing}"],
        ["split", "--in", "{corpus}", "--train-out", "{out}", "--val-out", "{out2}",
         "--test-out", "{missing}"],
        ["train", "--model", "nb", "--features", "count", "--train", "{train}",
         "--out", "{missing}"],
        ["evaluate", "--model-file", "{model}", "--test", "{test}", "--report", "{missing}"],
        ["evaluate", "--model-file", "{model}", "--test", "{test}", "--report", "{out}",
         "--csv", "{missing}"],
        ["stats", "chars", "--in", "{corpus}", "--gender", "male", "--out", "{missing}"],
        ["grid", "--config", "{grid}", "--report-json", "{missing}", "--report-csv", "{out}"],
        ["grid", "--config", "{grid}", "--report-json", "{out}", "--report-csv", "{missing}"],
    ], ids=["build-dataset", "split", "train", "evaluate-report", "evaluate-csv", "stats",
            "grid-json", "grid-csv"])
    def test_exits_2_and_writes_nothing(self, runner, files, tmp_path, args):
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        result = runner.invoke(main, [arg.format(**files) for arg in args])
        assert result.exit_code == 2
        assert _no_traceback(result)
        assert result.stdout == ""
        missing = files["missing"]
        assert result.stderr == (f"error: {missing}: {missing.parent.resolve()} "
                                 "is not an existing directory\n")
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()} == before


class TestErrorBoundary:
    """Every command maps a GendecError the same way: an ``error:`` line, no
    traceback, exit 3 for a numerical failure and 2 for any other."""

    @pytest.fixture
    def files(self, tmp_path, split_files, raw_files, corpus_file, model_path):
        train_csv, _val, test_csv = split_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "train": str(train_csv), "test": str(test_csv),
            "cells": [{"model": "nb", "features": "count", "variant": "original",
                       "part": "full"}],
        }), encoding="utf-8")
        return {"firsts": raw_files[0], "lasts": raw_files[1], "corpus": corpus_file,
                "train": train_csv, "test": test_csv, "model": model_path, "grid": grid,
                "out": tmp_path / "out.txt", "out2": tmp_path / "out2.txt",
                "out3": tmp_path / "out3.txt"}

    # command -> (one name it calls from gendec.cli, its arguments)
    COMMANDS = {
        "build-dataset": ("build_dataset", ["--firsts", "{firsts}", "--lasts", "{lasts}",
                                            "--out", "{out}"]),
        "split": ("split_dataset", ["--in", "{corpus}", "--train-out", "{out}",
                                    "--val-out", "{out2}", "--test-out", "{out3}"]),
        "train": ("train_cell_model", ["--model", "nb", "--features", "count",
                                       "--train", "{train}", "--out", "{out}"]),
        "evaluate": ("evaluate_predictions", ["--model-file", "{model}", "--test", "{test}",
                                              "--report", "{out}"]),
        "predict": ("predict_with_proba", ["--model-file", "{model}",
                                           "--name", "Tanaka Satoko"]),
        "stats": ("homonym_stats", ["homonyms", "--in", "{corpus}", "--gender", "female",
                                    "--out", "{out}"]),
        "translit": ("kana_to_romaji", ["--kana", "たまい"]),
        "grid": ("run_experiment", ["--config", "{grid}", "--report-json", "{out}",
                                    "--report-csv", "{out2}"]),
    }

    def test_every_command_is_covered(self):
        assert set(self.COMMANDS) == set(main.commands)

    @pytest.mark.parametrize("error,code", [(NonFiniteError, 3), (SchemaError, 2)],
                             ids=["non-finite", "schema"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_error_exit_code(self, runner, files, monkeypatch, command, error, code):
        callee, args = self.COMMANDS[command]

        def fail(*_args, **_kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, callee, fail)
        result = runner.invoke(main, [command, *(a.format(**files) for a in args)])
        assert result.exit_code == code
        assert _no_traceback(result)
        assert result.stderr == "error: injected failure\n"
        assert result.stdout == ""
        assert not files["out"].exists()

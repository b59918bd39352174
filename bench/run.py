"""gendec benchmark: seeded synthetic corpora driven through the real CLI.

One run generates raw name inventories from ``--seed`` (``gen_names.py``),
sets up with ``gendec build-dataset``, ``split`` and ``train``, then spends
``--seconds`` on a closed loop of sequential CLI processes (one client, no
concurrency): ``grid``, ``predict --batch`` and ``predict --name`` runs,
interleaved.  Times are the CPU time of those processes, scaled to a
reference host speed that ``calibrate.py`` measures during the same run.
Every output is checked.  With ``--trace 1`` the run
instead makes one untraced CLI grid and then runs the same CLI commands
once more in ``traced.py``, which times each module's calls from outside,
and reports per-layer metrics.  ``bench/README.md`` says
why each workload exists and which layer metric should move which
end-to-end metric.

    python3 bench/run.py --workload all            # every workload, every metric
    python3 bench/run.py --workload grid-classical --seed 3 --seconds 45 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes goes under ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference_digests.json"

SETUP_REPEATS = 3
MIN_SAMPLES = 3  # runs of each timed operation, even past --seconds
SINGLE_NAMES = 16  # distinct held-out names the `predict --name` runs cycle through
RATIOS = "0.7,0.2,0.1"
PAIRING_K = 3  # cross-k pairing: each given-name row meets 3 families
# Given-name readings per corpus: 1,000 given-name rows, 3,000 records
# after cross-3 pairing, whatever the seed.  At this size a grid takes
# about 5 s, so MIN_SAMPLES grids fit in --seconds.
CORPUS_SIZE = 400
ROW_SAMPLES = 50  # traced per-name predictions; p80 leaves 10 samples above it
THREAD_CAP = 1  # BLAS/OpenMP threads per child process
# calibrate.py's CPU time on the 2-core Intel Xeon the bounds were set on.
# A run divides its times by (median calibrate.py CPU time / this).
HOST_REFERENCE_CPU_S = 0.95
HOST_SHARE = 0.15  # weight of calibrate.py runs in the timed loop, next to the workload's
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

CHAR_NGRAM = {"mode": "char_ngram", "ngram_min": 2, "ngram_max": 4}
RF_TREES = 3  # keeps the 20-cell grid near 5 s, so a run stays short


@dataclass(frozen=True)
class Workload:
    """One set of inputs: corpus tokenizer, grid cells and the served model."""

    name: str
    grid: dict  # grid-config entries besides train/test/seed
    served: dict  # what `gendec train` fits in set-up and `predict` serves
    batch_names: int  # names per `predict --batch` process
    # Weights of grid, batch and single-name runs in --seconds (HOST_SHARE is the fourth).
    shares: tuple[float, float, float]


def _cells(models, features, variants) -> list[dict]:
    return [{"model": m, "features": f, "variant": v, "part": "full"}
            for m in models for f in features for v in variants]


WORKLOADS = {
    w.name: w for w in (
        # CART and forest fit, the documented bottleneck, take the largest
        # share of the grid.  The served RF covers CLI start-up, model load
        # and per-name tree reading.
        Workload(
            name="grid-classical",
            grid={"preset": "classical-full", "hyperparameters": {"rf": {"n_trees": RF_TREES}}},
            served={"model": "rf", "features": "tfidf", "tokenizer": None,
                    "hyperparameters": {"n_trees": RF_TREES}},
            batch_names=32, shares=(0.45, 0.2, 0.2),
        ),
        # No tree runs; the text path (conversion, extraction, vectorizing,
        # repeated per model) and Pegasos dominate.
        Workload(
            name="grid-char-linear",
            grid={"cells": _cells(("nb", "lr", "svm"), ("count", "tfidf"),
                                  ("original", "converted")),
                  "tokenizer": CHAR_NGRAM},
            served={"model": "svm", "features": "count", "tokenizer": CHAR_NGRAM,
                    "hyperparameters": {}},
            batch_names=32, shares=(0.45, 0.2, 0.2),
        ),
    )
}

END_TO_END = {  # name -> unit
    "grid_s": "s",
    "predict_batch_names_per_s": "1/s",
    "predict_one_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# How each end-to-end metric follows the host's speed: times are divided by
# the host scale, rates multiplied; memory does not follow it.
HOST_EXPONENT = {"grid_s": -1, "predict_batch_names_per_s": 1, "predict_one_s": -1,
                 "setup_s": -1}

PER_LAYER = {  # name -> unit
    "name_core.read_corpus_csv_s": "s",
    "name_core.rows": "count",
    "corpus.build_dataset_s": "s",
    "corpus.split_dataset_s": "s",
    "translit.build_reading_dictionary_s": "s",
    "translit.skipped_records": "count",
    "translit.dict_entries": "count",
    "translit.fallback_rate": "ratio",
    "evaluate.extract_texts_s": "s",
    "evaluate.extract_texts_calls": "count",
    "evaluate.evaluate_predictions_s": "s",
    "evaluate.write_reports_s": "s",
    "vectorize.fit_vocabulary_s": "s",
    "vectorize.transform_s": "s",
    "vectorize.transform_calls": "count",
    "vectorize.vocab_size": "count",
    "vectorize.nnz": "count",
    **{f"models.{kind}.{what}": "s" for kind in ("nb", "lr", "dt", "rf", "svm")
       for what in ("fit_s", "predict_s")},
    "models.dt.nodes": "count",
    "models.dt.depth": "count",
    "models.rf.nodes_mean": "count",
    "models.rf.predict_row_p50_s": "s",
    "models.rf.predict_row_p80_s": "s",
    "models.rf.predict_row_n": "count",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.file_bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; a failure keeps a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failures.extend([what] * count)
        return ok


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system time: unlike wall time, it leaves out steal
    maxrss_mb: float
    stdout: str


class Runner:
    """Starts `gendec` CLI processes one at a time and waits for each."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.host_cpu: list[float] = []  # CPU seconds of each calibrate.py run
        env = dict(os.environ)
        env.pop("SOURCE_DATE_EPOCH", None)  # model files pin created_at without it
        env["PYTHONPATH"] = str(SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(THREAD_CAP)
        self.env = env

    def python(self, args: list[str], log: Path) -> Proc:
        """Run ``python3 *args``; wall time, and CPU time and peak RSS from wait4's rusage."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline reached")
        with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(encoding="utf-8", errors="replace")
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, text)

    def gendec(self, args: list, log: Path) -> Proc:
        return self.python(["-m", "gendec.cli", *map(str, args)], log)

    def sample_host(self, log: Path, tally: Tally) -> Proc:
        """Run the fixed reference work once and keep its CPU time."""
        proc = self.python([str(BENCH_DIR / "calibrate.py")], log)
        if tally.check(proc.returncode == 0, f"calibrate.py exited {proc.returncode}"):
            self.host_cpu.append(proc.cpu_s)
        return proc


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _train_args(served: dict, seed: int) -> list[str]:
    args = ["--model", served["model"], "--features", served["features"],
            "--part", "full", "--variant", "original", "--seed", str(seed)]
    if served["tokenizer"]:
        tok = served["tokenizer"]
        args += ["--tokenizer", tok["mode"], "--ngram-min", str(tok["ngram_min"]),
                 "--ngram-max", str(tok["ngram_max"])]
    for key, value in served["hyperparameters"].items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


SETUP_FILES = ("corpus.csv", "train.csv", "test.csv", "model.json")


def setup_steps(wl: Workload, seed: int, raw: tuple[Path, Path], out: Path) -> list[list]:
    """`gendec build-dataset`, `split` and `train` arguments writing SETUP_FILES to ``out``."""
    corpus, train, test, model = (out / n for n in SETUP_FILES)
    return [
        ["build-dataset", "--firsts", raw[0], "--lasts", raw[1], "--out", corpus,
         "--pairing", "cross-k", "--k", PAIRING_K, "--seed", seed],
        ["split", "--in", corpus, "--train-out", train, "--val-out", out / "val.csv",
         "--test-out", test, "--ratios", RATIOS, "--seed", seed],
        ["train", *_train_args(wl.served, seed), "--train", train, "--out", model],
    ]


def set_up(wl: Workload, seed: int, raw: tuple[Path, Path], run_dir: Path,
           runner: Runner, tally: Tally, repeats: int) -> tuple[list[float], Path]:
    """Build, split and train ``repeats`` times; each repeat must give the same files.

    With more than one repeat, calibrate.py runs before the first and after each.
    """
    out = run_dir / "setup"
    out.mkdir()
    files = [out / n for n in SETUP_FILES]
    steps = setup_steps(wl, seed, raw, out)
    times: list[float] = []
    digests: list[str] = []
    if repeats > 1:
        runner.sample_host(run_dir / "calibrate.log", tally)
    for _ in range(repeats):
        total = 0.0
        for step in steps:
            proc = runner.gendec(step, run_dir / f"setup-{step[0]}.log")
            if not tally.check(proc.returncode == 0, f"set-up {step[0]} exited {proc.returncode}"):
                return [], out
            total += proc.cpu_s
        times.append(total)
        digests.append(_sha256(*files))
        tally.check(digests[-1] == digests[0], "a set-up repeat wrote different files")
        if repeats > 1:
            runner.sample_host(run_dir / "calibrate.log", tally)
    return times, out


def held_out_names(test_csv: Path, count: int) -> list[str]:
    """``count`` romaji names spread evenly over the test split (it is gender-sorted)."""
    rows = test_csv.read_text(encoding="utf-8").splitlines()[1:]
    return [rows[i * len(rows) // count].split(",")[0] for i in range(count)]


def expected_predictions(model: Path, names: list[str]) -> list[str]:
    """What `gendec predict` must print, from one batched library call."""
    from gendec.model_io import load_model
    from gendec.models import predict, predict_proba, supports_proba
    from gendec.name_core import normalize_romaji
    from gendec.vectorize import transform

    loaded = load_model(model)
    X = transform([normalize_romaji(n) for n in names], loaded.vocabulary, loaded.weighting)
    genders = predict(loaded.model, X)
    if not supports_proba(loaded.model):
        return [f"{n}\t{g.value}" for n, g in zip(names, genders)]
    probas = predict_proba(loaded.model, X)
    return [f"{n}\t{g.value}\t{max(p):.6f}" for n, g, p in zip(names, genders, probas)]


def check_grid(proc: Proc, report: Path, n_cells: int, tally: Tally) -> None:
    """Count failed cells from the report's ``error`` entries, not the exit code."""
    if proc.returncode != 0 or not report.exists():
        tally.check(False, f"grid exited {proc.returncode}", n_cells)
        return
    entries = json.loads(report.read_text(encoding="utf-8"))
    tally.attempted += n_cells
    tally.failures += [f"grid cell failed: {e['error']}" for e in entries if "error" in e]
    tally.failures += ["grid cell missing"] * max(0, n_cells - len(entries))


def expected_cell_count(wl: Workload) -> int:
    from gendec.evaluate import classical_full_grid

    return len(wl.grid["cells"]) if "cells" in wl.grid else len(classical_full_grid())


def write_grid_config(wl: Workload, seed: int, setup_dir: Path, path: Path) -> Path:
    config = {"train": str(setup_dir / "train.csv"), "test": str(setup_dir / "test.csv"),
              "seed": seed, **wl.grid}
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def timed_loop(wl: Workload, seed: int, seconds: int, setup_dir: Path, run_dir: Path,
               runner: Runner, tally: Tally) -> tuple[dict, str, dict]:
    """Grid, batch and single-name runs sharing ``seconds`` by the workload's shares.

    Each operation runs at least MIN_SAMPLES times.  Returns the metrics, the digest of
    the first grid's reports plus the first batch output, and every sample.
    """
    config = write_grid_config(wl, seed, setup_dir, run_dir / "grid.json")
    model = setup_dir / "model.json"
    names = held_out_names(setup_dir / "test.csv", wl.batch_names + SINGLE_NAMES)
    batch, singles = names[:wl.batch_names], names[wl.batch_names:]
    batch_file = run_dir / "names.txt"
    batch_file.write_text("".join(n + "\n" for n in batch), encoding="utf-8")
    expected = dict(zip(names, expected_predictions(model, names)))
    n_cells = expected_cell_count(wl)
    samples: dict[str, list[float]] = {kind: [] for kind in (
        "grid", "batch", "one", "rss", "grid_wall", "batch_wall", "one_wall")}
    outputs: dict[str, bytes] = {}

    def same_as_first(kind: str, data: bytes) -> None:
        first = outputs.setdefault(kind, data)
        tally.check(data == first, f"{kind} output differs from the first run's")

    def grid() -> Proc:
        report, report_csv = run_dir / "report.json", run_dir / "report.csv"
        proc = runner.gendec(["grid", "--config", config, "--report-json", report,
                              "--report-csv", report_csv], run_dir / "grid.log")
        samples["grid"].append(proc.cpu_s)
        samples["grid_wall"].append(proc.wall_s)
        check_grid(proc, report, n_cells, tally)
        if proc.returncode == 0:
            same_as_first("grid", report.read_bytes() + report_csv.read_bytes())
        return proc

    def batch_predict() -> Proc:
        proc = runner.gendec(["predict", "--model-file", model, "--batch", batch_file],
                             run_dir / "batch.log")
        samples["batch"].append(len(batch) / proc.cpu_s)
        samples["batch_wall"].append(proc.wall_s)
        got = proc.stdout.splitlines() if proc.returncode == 0 else []
        for i, name in enumerate(batch):
            tally.check(i < len(got) and got[i] == expected[name],
                        f"predict --batch line {i}: {got[i] if i < len(got) else None!r}")
        if proc.returncode == 0:
            same_as_first("batch", proc.stdout.encode())
        return proc

    def one_predict() -> Proc:
        name = singles[len(samples["one"]) % len(singles)]
        proc = runner.gendec(["predict", "--model-file", model, "--name", name],
                             run_dir / "one.log")
        samples["one"].append(proc.cpu_s)
        samples["one_wall"].append(proc.wall_s)
        tally.check(proc.returncode == 0 and proc.stdout == expected[name] + "\n",
                    f"predict --name {name!r} printed {proc.stdout!r}")
        return proc

    def host() -> Proc:
        return runner.sample_host(run_dir / "calibrate.log", tally)

    # Interleave the operations in proportion to their time shares, so a
    # burst of load from outside slows a few samples of each metric rather
    # than every sample of one.  Operations with fewer than MIN_SAMPLES
    # runs go first, so every metric is a median of at least that many.
    # After that, an operation starts only if its last run would still
    # end within ``seconds``.  calibrate.py runs take their turn as well.
    operations = (grid, batch_predict, one_predict, host)
    shares = (*wl.shares, HOST_SHARE)
    runs = [0] * len(operations)
    spent = [0.0] * len(operations)
    last = [0.0] * len(operations)
    start = time.perf_counter()
    while True:
        short = [i for i, n in enumerate(runs) if n < MIN_SAMPLES]
        left = seconds - (time.perf_counter() - start)
        fits = short or [i for i in range(len(operations)) if last[i] <= left]
        if not fits:
            break
        pick = min(fits, key=lambda i: spent[i] / shares[i])
        if time.monotonic() + last[pick] > runner.deadline:
            break  # it would not end in time
        proc = operations[pick]()
        if operations[pick] is not host:
            samples["rss"].append(proc.maxrss_mb)
        runs[pick] += 1
        spent[pick] += proc.wall_s
        last[pick] = proc.wall_s

    for kind in ("grid", "batch", "one"):
        if not tally.check(bool(samples[kind]), f"no {kind} run before the deadline"):
            samples[kind].append(0.0)
    metrics = {
        "grid_s": statistics.median(samples["grid"]),
        "predict_batch_names_per_s": statistics.median(samples["batch"]),
        "predict_one_s": statistics.median(samples["one"]),
        "peak_rss_mb": max(samples["rss"], default=0.0),
    }
    digest = hashlib.sha256(outputs.get("grid", b"") + outputs.get("batch", b"")).hexdigest()
    return metrics, digest, samples


def _self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from the traced child's spans and notes.

    Times are self times summed over every call; the ``grid`` phase
    restricts a metric to the calls ``gendec grid`` made.
    """
    spans, notes = trace["spans"], trace["notes"]
    own = _self_times(spans)

    def self_times(name: str, phase: str | None = None) -> list[float]:
        return [t for span, t in zip(spans, own)
                if span["name"] == name and phase in (None, span["phase"])]

    def total(name: str, phase: str | None = None) -> float:
        return sum(self_times(name, phase), 0.0)

    def noted(key: str, how, phase: str | None = None) -> float:
        values = [v for p, keys in notes.items() if phase in (None, p)
                  for v in keys.get(key, [])]
        return how(values) if values else 0.0

    # A row is the whole per-name path, so its full duration, not self time.
    rows = sorted(s["end"] - s["start"] for s in spans if s["name"] == "models.rf.predict_row")
    return {
        "name_core.read_corpus_csv_s": total("name_core.read_corpus_csv"),
        "name_core.rows": noted("name_core.rows", sum),
        "corpus.build_dataset_s": total("corpus.build_dataset"),
        "corpus.split_dataset_s": total("corpus.split_dataset"),
        "translit.build_reading_dictionary_s": total("translit.build_reading_dictionary"),
        "translit.skipped_records": noted("translit.skipped_records", sum),
        "translit.dict_entries": noted("translit.dict_entries", max),
        "translit.fallback_rate": noted("translit.fallback_rate", statistics.mean),
        "evaluate.extract_texts_s": total("evaluate.extract_texts", "grid"),
        "evaluate.extract_texts_calls": len(self_times("evaluate.extract_texts", "grid")),
        "evaluate.evaluate_predictions_s": total("evaluate.evaluate_predictions"),
        "evaluate.write_reports_s": total("evaluate.write_reports"),
        "vectorize.fit_vocabulary_s": total("vectorize.fit_vocabulary", "grid"),
        "vectorize.transform_s": total("vectorize.transform", "grid"),
        "vectorize.transform_calls": len(self_times("vectorize.transform", "grid")),
        "vectorize.vocab_size": noted("vectorize.vocab_size", max, "grid"),
        "vectorize.nnz": noted("vectorize.nnz", sum, "grid"),
        **{f"models.{kind}.fit_s": total(f"models.{kind}.fit")
           for kind in ("nb", "lr", "dt", "rf", "svm")},
        **{f"models.{kind}.predict_s": total(f"models.{kind}.predict", "grid")
           for kind in ("nb", "lr", "dt", "rf", "svm")},
        "models.dt.nodes": noted("models.dt.nodes", statistics.mean),
        "models.dt.depth": noted("models.dt.depth", max),
        "models.rf.nodes_mean": noted("models.rf.nodes", statistics.mean),
        "models.rf.predict_row_p50_s": statistics.median(rows) if rows else 0.0,
        "models.rf.predict_row_p80_s": rows[int(0.8 * len(rows)) - 1] if rows else 0.0,
        "models.rf.predict_row_n": len(rows),
        "model_io.save_s": total("model_io.save"),
        "model_io.load_s": total("model_io.load"),
        "model_io.file_bytes": noted("model_io.file_bytes", max),
        "cli.import_s": total("cli.import"),
        # Wrapper cost per call, measured on a no-op, times the calls wrapped.
        "trace.overhead_s": trace["span_cost_s"] * len(spans),
    }


def traced_run(wl: Workload, seed: int, raw: tuple[Path, Path], setup_dir: Path,
               run_dir: Path, runner: Runner, tally: Tally) -> tuple[dict, str]:
    """One untraced CLI grid, then every command again in ``traced.py``.

    The traced commands must write the same files as the untraced ones and
    print what a batched library call predicts.
    """
    config = write_grid_config(wl, seed, setup_dir, run_dir / "grid.json")
    report, report_csv = run_dir / "report.json", run_dir / "report.csv"
    proc = runner.gendec(["grid", "--config", config, "--report-json", report,
                          "--report-csv", report_csv], run_dir / "grid.log")
    check_grid(proc, report, expected_cell_count(wl), tally)

    traced_dir = run_dir / "traced"
    traced_dir.mkdir()
    build, split, train = setup_steps(wl, seed, raw, traced_dir)
    names = held_out_names(setup_dir / "test.csv", ROW_SAMPLES)
    names_file = traced_dir / "names.txt"
    names_file.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    commands = [
        build, split,
        ["grid", "--config", write_grid_config(wl, seed, traced_dir, traced_dir / "grid.json"),
         "--report-json", traced_dir / "report.json", "--report-csv", traced_dir / "report.csv"],
        train,
        ["predict", "--model-file", traced_dir / "model.json", "--batch", names_file],
    ]
    spec_path = run_dir / "traced-spec.json"
    spec_path.write_text(json.dumps({"commands": [[str(a) for a in c] for c in commands]},
                                    indent=2) + "\n", encoding="utf-8")
    spans_path = run_dir / "spans.json"
    child = runner.python([str(BENCH_DIR / "traced.py"), "--spec", spec_path,
                           "--out", spans_path], run_dir / "traced.log")
    if not tally.check(child.returncode == 0, f"traced run exited {child.returncode}"):
        return {name: 0.0 for name in PER_LAYER}, ""
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    for done in trace["exits"]:
        tally.check(done["exit"] == 0, f"traced {done['command']} exited {done['exit']}")
    pairs = [(name, setup_dir) for name in SETUP_FILES]
    pairs += [("report.json", run_dir), ("report.csv", run_dir)]
    for name, cli_dir in pairs:
        cli_file, traced_file = cli_dir / name, traced_dir / name
        same = (cli_file.exists() and traced_file.exists()
                and traced_file.read_bytes() == cli_file.read_bytes())
        tally.check(same, f"traced {name} differs from the CLI's")
    got = trace["predict_output"].splitlines()
    for i, want in enumerate(expected_predictions(setup_dir / "model.json", names)):
        tally.check(i < len(got) and got[i] == want,
                    f"traced predict line {i}: {got[i] if i < len(got) else None!r}")
    return layer_metrics(trace), _sha256(traced_dir / "report.json",
                                         traced_dir / "report.csv")


def environment() -> dict:
    """Machine, versions and source identity recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "thread_cap": THREAD_CAP,
    }


def corpus_sizes(setup_dir: Path) -> dict:
    """Rows per file, and V/nnz of the served model's training matrix."""
    from gendec.model_io import load_model
    from gendec.name_core import normalize_romaji, read_corpus_csv
    from gendec.vectorize import transform

    loaded = load_model(setup_dir / "model.json")
    train = read_corpus_csv(setup_dir / "train.csv")
    X = transform([normalize_romaji(r.romaji) for r in train], loaded.vocabulary,
                  loaded.weighting)
    rows = {n: len((setup_dir / f"{n}.csv").read_text(encoding="utf-8").splitlines()) - 1
            for n in ("corpus", "train", "test")}
    return {"rows": rows, "V": loaded.vocabulary.size, "nnz": int(X.matrix.nnz)}


def check_reference(wl: Workload, seed: int, digest: str, tally: Tally) -> None:
    """The run's output digest must equal the one recorded for this seed, if any."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name, {})
    if str(seed) in recorded:
        tally.check(digest == recorded[str(seed)],
                    f"digest {digest[:12]} != recorded {recorded[str(seed)][:12]}")


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> tuple[Tally, dict, dict]:
    run_dir = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    metrics = {name: 0.0 for name in (PER_LAYER if trace else END_TO_END)}
    info: dict = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment()}
    # Input generation is the benchmark's own work and is not timed.
    raw = gen_names.write_inventories(run_dir / "raw", seed, CORPUS_SIZE)
    try:
        setup_times, setup_dir = set_up(wl, seed, raw, run_dir, runner, tally,
                                        1 if trace else SETUP_REPEATS)
        if setup_times and trace:
            metrics, digest = traced_run(wl, seed, raw, setup_dir, run_dir, runner, tally)
        elif setup_times:
            got, digest, info["samples"] = timed_loop(wl, seed, seconds, setup_dir,
                                                      run_dir, runner, tally)
            got["setup_s"] = statistics.median(setup_times)
            # Times at the reference host speed: a scale > 1 means the host ran
            # slow.  One scale for the whole run: a phase's own few calibrate.py
            # runs estimate it less well than all of them do.
            scale = statistics.median(runner.host_cpu or [HOST_REFERENCE_CPU_S])
            scale /= HOST_REFERENCE_CPU_S
            metrics.update({name: value * scale ** HOST_EXPONENT.get(name, 0)
                            for name, value in got.items()})
            info.update(raw_metrics=got, host_cpu_s=runner.host_cpu, host_scale=scale)
            check_reference(wl, seed, digest, tally)
        if setup_times:
            info.update(corpus=corpus_sizes(setup_dir), digest=digest,
                        setup_times_s=setup_times)
    except TimeoutError:
        tally.check(False, f"no result within {RUN_DEADLINE_S:.0f} s")
    info["failures"] = tally.failures[:20]
    (run_dir / "result.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=2) + "\n", encoding="utf-8")
    return tally, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the children's cleanup
    if not (SRC / "gendec" / "cli.py").is_file():
        print(f"error: no gendec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, out = 0, 0, {}
    for name in names:
        tally, metrics, info = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace))
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        print("environment", json.dumps(info.get("environment")))
        print("corpus", json.dumps(info.get("corpus")))
        if "samples" in info:
            print("samples", json.dumps({k: len(v) for k, v in info["samples"].items()}))
            print("host", json.dumps({"cpu_s": info["host_cpu_s"], "scale": info["host_scale"]}))
            print("unscaled", json.dumps(info["raw_metrics"]))
        for metric, value in metrics.items():
            print(f"  {metric:38s} {value:14.6f} {units[metric]}")
        rate = len(tally.failures) / max(tally.attempted, 1)
        print(f"  {'error_rate':38s} {rate:14.6f} ratio "
              f"({len(tally.failures)} of {tally.attempted} operations failed)")
        for reason in tally.failures[:5]:
            print("  failed:", reason)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = "" if len(names) == 1 else name + ":"
        out.update({prefix + m: {"value": v, "unit": units[m]} for m, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: build-dataset, split, train, evaluate, predict,
stats, translit, and grid subcommands.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure.
All randomness flows from a single --seed flag (default 42) that is
echoed into metadata sidecars and model files.
"""

from __future__ import annotations

import hashlib
import sys
import time
import warnings
from pathlib import Path

import click
import numpy as np

from . import __version__
from .corpus import (
    PRNG_ID,
    PairingConfig,
    PairingMode,
    SplitRatios,
    build_dataset,
    char_frequency,
    dedupe_first_names,
    gender_balance,
    homonym_stats,
    read_raw_csv,
    split_dataset,
    write_char_csv,
    write_homonym_csv,
)
from .errors import ConfigError, EmptyInputError, GendecError, NonFiniteError
from .evaluate import (
    CellResult,
    ExperimentGrid,
    evaluate_predictions,
    extract_texts,
    run_experiment,
    train_cell_model,
    write_reports_csv,
    write_reports_json,
)
from .model_io import ModelFile, deterministic_created_at, load_model, save_model
from .models import (
    MODEL_KINDS, ModelKind, check_hyperparameters, predict, predict_with_proba,
)
from .name_core import (
    Gender,
    InputVariant,
    NamePart,
    NameRole,
    part_text,
    read_corpus_csv,
    read_text,
    write_corpus_csv,
    write_json,
)
from .translit import build_reading_dictionary, kana_to_romaji
from .vectorize import TokenizerConfig, TokenizerMode, Weighting, fit_vocabulary, transform

_MODEL_CHOICES = [kind.value for kind in ModelKind]
_FEATURE_CHOICES = [w.value for w in Weighting]
_PART_CHOICES = [p.value for p in NamePart]
_VARIANT_CHOICES = [v.value for v in InputVariant]


class _ErrorBoundary(click.Group):
    """Runs every subcommand behind one rule: a warning prints a ``warning:``
    line, and a GendecError prints an ``error:`` line and exits 3 for a
    numerical failure, 2 for any other."""

    def invoke(self, ctx: click.Context):
        try:
            with warnings.catch_warnings():  # the filters stay as they are
                warnings.showwarning = lambda message, *_, **__: click.echo(
                    f"warning: {message}", err=True)
                return super().invoke(ctx)
        except GendecError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3 if isinstance(exc, NonFiniteError) else 2)


def _check_outputs(inputs, outputs) -> None:
    """ConfigError unless each output path (resolved, ``None`` skipped) lies in
    an existing directory and differs from every input and every other
    output, so no write destroys data or fails after the work is done."""
    taken = {Path(path).resolve() for path in inputs if path is not None}
    for path in filter(None, outputs):
        resolved = Path(path).resolve()
        if resolved in taken:
            raise ConfigError(f"{path} is both an output and an input or another output")
        if not resolved.parent.is_dir():
            raise ConfigError(f"{path}: {resolved.parent} is not an existing directory")
        taken.add(resolved)


def _sidecar(path: str) -> Path:
    return Path(path).with_suffix(Path(path).suffix + ".meta.json")


@click.group(cls=_ErrorBoundary)
@click.version_option(__version__)
def main() -> None:
    """Gender detection from Japanese names."""


@main.command("build-dataset")
@click.option("--firsts", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Raw given-name CSV (romaji,hiragana,kanji,gender,role).")
@click.option("--lasts", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Raw family-name CSV.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--pairing", type=click.Choice([m.value for m in PairingMode]),
              default=PairingMode.ONE_TO_ONE.value, show_default=True)
@click.option("--k", type=click.IntRange(1), default=1, show_default=True,
              help="Families per given name in cross-k mode.")
@click.option("--seed", type=click.IntRange(0), default=42, show_default=True)
def cmd_build_dataset(firsts, lasts, out, pairing, k, seed) -> None:
    """Join raw name parts into a full-name corpus CSV plus metadata."""
    _check_outputs([firsts, lasts], [out, _sidecar(out)])
    config = PairingConfig(mode=PairingMode(pairing), k=k)
    given_rows = dedupe_first_names(
        [r for r in read_raw_csv(firsts) if r.role is NameRole.GIVEN]
    )
    family_rows = [r for r in read_raw_csv(lasts) if r.role is NameRole.FAMILY]
    records = build_dataset(given_rows, family_rows, config, seed)
    write_corpus_csv(out, records)
    balance = gender_balance(records)
    write_json(
        _sidecar(out),
        {
            "command": "build-dataset",
            "seed": seed,
            "pairing": config.mode.value,
            "k": config.k,
            "prng": PRNG_ID,
            "rows": {
                "total": len(records),
                "female": sum(1 for r in records if r.gender is Gender.FEMALE),
                "male": sum(1 for r in records if r.gender is Gender.MALE),
            },
        },
        indent=2, sort_keys=True,
    )
    click.echo(
        f"wrote {len(records)} records to {out} "
        f"(male {balance['male']:.2%}, female {balance['female']:.2%})"
    )


def _parse_ratios(raw: str) -> SplitRatios:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--ratios needs three comma-separated values, got {raw!r}")
    try:
        train, val, test = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--ratios values must be numbers, got {raw!r}") from None
    return SplitRatios(train=train, val=val, test=test)


@main.command("split")
@click.option("--in", "corpus_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--train-out", type=click.Path(dir_okay=False), required=True)
@click.option("--val-out", type=click.Path(dir_okay=False), required=True)
@click.option("--test-out", type=click.Path(dir_okay=False), required=True)
@click.option("--ratios", default="0.7,0.2,0.1", show_default=True)
@click.option("--seed", type=click.IntRange(0), default=42, show_default=True)
@click.option("--stratify/--no-stratify", default=True, show_default=True)
def cmd_split(corpus_path, train_out, val_out, test_out, ratios, seed, stratify) -> None:
    """Split a corpus into train/val/test CSVs."""
    _check_outputs([corpus_path], [train_out, val_out, test_out, _sidecar(train_out)])
    records = read_corpus_csv(corpus_path)
    split_ratios = _parse_ratios(ratios)
    train, val, test = split_dataset(records, split_ratios, seed, stratify)
    write_corpus_csv(train_out, train)
    write_corpus_csv(val_out, val)
    write_corpus_csv(test_out, test)
    write_json(
        _sidecar(train_out),
        {
            "command": "split",
            "seed": seed,
            "ratios": [split_ratios.train, split_ratios.val, split_ratios.test],
            "stratify": stratify,
            "prng": PRNG_ID,
            "rows": {"train": len(train), "val": len(val), "test": len(test)},
        },
        indent=2, sort_keys=True,
    )
    click.echo(f"train={len(train)} val={len(val)} test={len(test)}")


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@main.command("train")
@click.option("--model", "model_kind", type=click.Choice(_MODEL_CHOICES), required=True)
@click.option("--features", type=click.Choice(_FEATURE_CHOICES), required=True)
@click.option("--part", type=click.Choice(_PART_CHOICES), default="full",
              show_default=True)
@click.option("--variant", type=click.Choice(_VARIANT_CHOICES), default="original",
              show_default=True)
@click.option("--train", "train_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--seed", type=click.IntRange(0), default=42, show_default=True)
@click.option("--tokenizer", type=click.Choice([m.value for m in TokenizerMode]),
              default="word", show_default=True)
@click.option("--ngram-min", type=click.IntRange(1, 8), default=2, show_default=True,
              help="Only used with --tokenizer char_ngram.")
@click.option("--ngram-max", type=click.IntRange(1, 8), default=4, show_default=True)
@click.option("--alpha", type=float, default=None, help="NB smoothing.")
@click.option("--learning-rate", type=float, default=None, help="LR step size.")
@click.option("--epochs", type=int, default=None, help="LR/SVM passes.")
@click.option("--l2", type=float, default=None, help="LR regularization.")
@click.option("--lam", type=float, default=None, help="SVM regularization.")
@click.option("--max-depth", type=int, default=None, help="Tree/forest depth cap.")
@click.option("--min-samples-leaf", type=int, default=None)
@click.option("--n-trees", type=int, default=None, help="Forest size.")
@click.option("--features-per-split", type=int, default=None)
@click.option("--bootstrap/--no-bootstrap", default=None)
def cmd_train(model_kind, features, part, variant, train_path, out, seed, tokenizer,
              ngram_min, ngram_max, **flags) -> None:
    """Train one grid cell's model and write a self-contained model file."""
    started = time.monotonic()
    _check_outputs([train_path], [out])
    kind = ModelKind(model_kind)
    # Hyperparameter flags are named after the trainers' keywords; flags
    # the chosen kind does not take are ignored.
    takes = MODEL_KINDS[kind].hyperparameters
    overrides = {name: value for name, value in flags.items()
                 if value is not None and name in takes}
    check_hyperparameters({kind.value: overrides})
    created_at = deterministic_created_at()
    records = read_corpus_csv(train_path)
    if not records:
        raise EmptyInputError(f"{train_path}: training CSV has no rows")
    weighting = Weighting(features)
    name_part = NamePart(part)
    input_variant = InputVariant(variant)
    if tokenizer == TokenizerMode.WORD.value:
        tok_config = TokenizerConfig()
    else:
        tok_config = TokenizerConfig(
            mode=TokenizerMode.CHAR_NGRAM, ngram_min=ngram_min, ngram_max=ngram_max
        )

    reading_dict = (build_reading_dictionary(records)[0]
                    if input_variant is InputVariant.CONVERTED else None)

    texts, _ = extract_texts(records, name_part, input_variant, reading_dict)
    labels = [r.gender for r in records]
    vocab = fit_vocabulary(texts, tok_config, weighting)
    X = transform(texts, vocab, weighting)
    model = train_cell_model(kind, X, labels, seed, overrides)
    model_file = ModelFile(
        model=model,
        weighting=weighting,
        part=name_part,
        variant=input_variant,
        vocabulary=vocab,
        reading_dictionary=reading_dict,
        metadata={
            "train_rows": len(records),
            "seed": seed,
            "created_at": created_at,
            "corpus_sha256": _sha256_file(train_path),
        },
    )
    save_model(out, model_file)
    elapsed = time.monotonic() - started
    click.echo(f"trained {kind.value} on {len(records)} rows in {elapsed:.2f}s -> {out}")


@main.command("evaluate")
@click.option("--model-file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--test", "test_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--report", type=click.Path(dir_okay=False), required=True,
              help="JSON report output.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Optional CSV mirror.")
def cmd_evaluate(model_file, test_path, report, csv_path) -> None:
    """Evaluate a trained model on a test CSV and write its report."""
    _check_outputs([model_file, test_path], [report, csv_path])
    loaded = load_model(model_file)
    records = read_corpus_csv(test_path)
    if not records:
        raise EmptyInputError(f"{test_path}: test CSV has no rows")
    texts, fallback_rate = extract_texts(
        records, loaded.part, loaded.variant, loaded.reading_dictionary
    )
    X = transform(texts, loaded.vocabulary, loaded.weighting)
    y_pred = predict(loaded.model, X)
    y_true = [r.gender for r in records]
    result = evaluate_predictions(y_true, y_pred, loaded.cell, fallback_rate)
    write_json(report, result.to_json_dict(), indent=2, sort_keys=True)
    if csv_path:
        write_reports_csv(csv_path, [CellResult(cell=result.cell, report=result)])
    click.echo(
        f"{result.cell.label()}: macro_f1={result.macro_f1:.4f} "
        f"accuracy={result.accuracy:.4f}"
    )


@main.command("predict")
@click.option("--model-file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--name", default=None, help='Romaji full name, e.g. "Tamai Kazuyoshi".')
@click.option("--batch", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one romaji full name per line.")
def cmd_predict(model_file, name, batch) -> None:
    """Predict gender for romaji names (converted-variant models fall back
    to the romaji input, since no kanji is available here)."""
    if (name is None) == (batch is None):
        raise ConfigError("provide exactly one of --name or --batch")
    loaded = load_model(model_file)
    if name is not None:
        names = [name]
    else:
        # Split as universal newlines do; a CRLF leaves a blank line.
        lines = read_text(batch).replace("\r", "\n").split("\n")
        names = [line.strip() for line in lines if line.strip()]
        if not names:
            raise EmptyInputError(f"{batch} holds no names")
    # Every name is checked before anything is printed.
    texts = [part_text(n, loaded.part) for n in names]
    X = transform(texts, loaded.vocabulary, loaded.weighting)
    genders, proba = predict_with_proba(loaded.model, X)
    for i in np.flatnonzero(np.diff(X.matrix.indptr) == 0):
        click.echo(f"warning: {names[i]!r} has no token the model knows; "
                   "its prediction does not depend on the name", err=True)
    for i, (n, gender) in enumerate(zip(names, genders)):
        line = f"{n}\t{gender.value}"
        click.echo(line if proba is None else f"{line}\t{max(proba[i]):.6f}")


@main.command("stats")
@click.argument("statistic", type=click.Choice(["homonyms", "chars"]))
@click.option("--in", "corpus_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--gender", type=click.Choice([g.value for g in Gender]), required=True)
@click.option("--part", type=click.Choice(_PART_CHOICES), default="first",
              show_default=True, help="Name part for chars.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_stats(statistic, corpus_path, gender, part, out) -> None:
    """Write homonym histograms or kanji character frequencies as CSV."""
    _check_outputs([corpus_path], [out])
    records = read_corpus_csv(corpus_path)
    target = Gender(gender)
    if statistic == "homonyms":
        write_homonym_csv(out, homonym_stats(records)[target])
    else:
        items = char_frequency(records, target, NamePart(part))
        write_char_csv(out, items)
    click.echo(f"wrote {statistic} for {gender} to {out}")


@main.command("translit")
@click.option("--kana", required=True, help="Hiragana text (may be empty).")
def cmd_translit(kana) -> None:
    """Transliterate hiragana to romaji."""
    click.echo(kana_to_romaji(kana))


@main.command("grid")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True,
              help="JSON: train/test paths, seed, cells or preset, hyperparameters.")
@click.option("--report-json", type=click.Path(dir_okay=False), required=True)
@click.option("--report-csv", type=click.Path(dir_okay=False), required=True)
def cmd_grid(config_path, report_json, report_csv) -> None:
    """Run a full experiment grid from one config file."""
    grid = ExperimentGrid.load(config_path)
    _check_outputs([config_path, grid.train_path, grid.test_path], [report_json, report_csv])
    results = run_experiment(grid)
    write_reports_json(report_json, results)
    write_reports_csv(report_csv, results)
    for result in results:
        if result.report is not None:
            click.echo(
                f"{result.cell.label()}: macro_f1={result.report.macro_f1:.4f}"
            )
        else:
            click.echo(f"{result.cell.label()}: FAILED ({result.error})")
    # Reports are complete; a failed cell still makes the run fail.
    errors = [result.error for result in results if result.error is not None]
    if errors:
        diverged = any(e.startswith(f"{NonFiniteError.__name__}:") for e in errors)
        error = NonFiniteError if diverged else GendecError
        raise error(f"{len(errors)} of {len(results)} grid cells failed")


if __name__ == "__main__":
    main()

"""Core domain types for Japanese full names with binary gender labels.

Names are stored family-name-first in all three scripts.  The corpus CSV
schema is ``romaji,kanji,hiragana,gender``: UTF-8, comma separated, no
quoting (fields never contain commas), LF line endings.  Every text file
the package reads or writes goes through the helpers at the end.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, LabelError, MalformedNameError, SchemaError

CSV_HEADER = "romaji,kanji,hiragana,gender"


class Gender(str, Enum):
    """Binary gender label, serialized lowercase; canonical order female < male."""

    FEMALE = "female"
    MALE = "male"

    @classmethod
    def parse(cls, raw: str) -> "Gender":
        try:
            return cls(raw)
        except ValueError:
            raise LabelError(f"gender must be 'female' or 'male', got {raw!r}") from None


#: Canonical ordering used for tie-breaking and report rows.
GENDERS = tuple(Gender)


class NamePart(str, Enum):
    """Which portion of a full name feeds the classifier, in canonical report order."""

    FIRST = "first"
    LAST = "last"
    FULL = "full"


class InputVariant(str, Enum):
    """Romaji source: the stored column, or a transliteration of the kanji,
    in canonical report order."""

    ORIGINAL = "original"
    CONVERTED = "converted"


class NameRole(str, Enum):
    """Whether a name part is a family (last) or given (first) name."""

    FAMILY = "family"
    GIVEN = "given"


# Plain ASCII letters plus the single family/given separator.  Macrons,
# hyphens and other punctuation are rejected at ingest instead of being
# silently transformed.
_ROMAJI_FULL_RE = re.compile(r"[A-Za-z]+ [A-Za-z]+\Z")


def normalize_romaji(raw: str) -> str:
    """Lowercase, trim, and collapse whitespace runs to single spaces."""
    return " ".join(raw.split()).lower()


def collapse_whitespace(raw: str) -> str:
    """Trim and collapse whitespace runs while preserving letter case."""
    return " ".join(raw.split())


@dataclass(frozen=True)
class NameRecord:
    """One full name in all three scripts plus its gender label.

    ``romaji`` is "Family Given" with exactly one space; ``kanji`` and
    ``hiragana`` are the same name concatenated without a separator.
    """

    romaji: str
    kanji: str
    hiragana: str
    gender: Gender

    def __post_init__(self) -> None:
        if not _ROMAJI_FULL_RE.fullmatch(self.romaji):
            raise MalformedNameError(
                f"romaji must be ASCII letters as 'Family Given', got {self.romaji!r}"
            )
        if not self.kanji:
            raise MalformedNameError(f"empty kanji for {self.romaji!r}")
        if not self.hiragana:
            raise MalformedNameError(f"empty hiragana for {self.romaji!r}")
        if not isinstance(self.gender, Gender):
            raise LabelError(f"gender must be a Gender, got {self.gender!r}")


def enum_member(enum: type[Enum], value, what: str):
    """``value`` if it is a member of ``enum``, else ConfigError.

    A plain string equals its member but fails the package's ``is`` tests,
    so every public entry that branches on an enum passes it through here.
    """
    if not isinstance(value, enum):
        raise ConfigError(f"{what} must be a {enum.__name__}, got {value!r}")
    return value


def part_text(romaji: str, part: NamePart) -> str:
    """Normalized text of ``part`` of a "Family Given" romaji full name,
    which must be ASCII letters once whitespace is collapsed, as in a
    ``NameRecord``."""
    enum_member(NamePart, part, "part")
    collapsed = collapse_whitespace(romaji)
    if not _ROMAJI_FULL_RE.fullmatch(collapsed):
        raise MalformedNameError(f"expected 'Family Given', got {romaji!r}")
    norm = collapsed.lower()
    if part is NamePart.FULL:
        return norm
    family, given = norm.split(" ")
    return family if part is NamePart.LAST else given


def parse_csv_row(line: str) -> NameRecord:
    """Parse one corpus CSV data row into a validated record.

    Whitespace in the romaji field is canonicalized but the original
    letter case is kept for display; classification normalizes on read.
    """
    fields = line.rstrip("\n").split(",")
    if len(fields) != 4:
        raise SchemaError(f"expected 4 columns, got {len(fields)}: {line!r}")
    romaji, kanji, hiragana, gender = fields
    return NameRecord(
        romaji=collapse_whitespace(romaji),
        kanji=kanji,
        hiragana=hiragana,
        gender=Gender.parse(gender),
    )


def format_csv_row(record: NameRecord) -> str:
    return f"{record.romaji},{record.kanji},{record.hiragana},{record.gender.value}"


# Errors that file reading re-raises with file/line context.
_ROW_ERRORS = (SchemaError, LabelError, MalformedNameError)


def read_text(path: str | Path) -> str:
    """A file's text, decoded as UTF-8 (one leading byte-order mark dropped)
    with line endings kept as they are."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from None


def read_json(path: str | Path):
    """A file's JSON document; not UTF-8, not JSON, too deep or an object
    that repeats a key is a SchemaError."""

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise SchemaError(f"{path}: repeated key {repeated!r}")
        return doc

    text = read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not JSON: {exc}") from None


def _integer(value, low: int) -> bool:
    return type(value) is int and value >= low


def _real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


#: One rule per scalar read from outside the program (hyperparameters,
#: seeds, tokenizer and pairing values, model-file fields): its test and its
#: wording.  An integer must be a Python ``int`` (no bool or numpy integer)
#: and a number an ``int`` or ``float`` within +-1.8e308 (no NaN, infinity
#: or 10**400), so every accepted value serializes as JSON and loads back
#: as itself.
VALUE_RULES = {
    **dict.fromkeys(("alpha", "learning_rate", "lam"),
                    (lambda v: _real(v) and v > 0, "a positive finite number")),
    "l2": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "bias": (_real, "a finite number"),
    **dict.fromkeys(("epochs", "n_trees", "min_samples_leaf", "k"),
                    (lambda v: _integer(v, 1), "an integer >= 1")),
    **dict.fromkeys(("ngram_min", "ngram_max"),
                    (lambda v: _integer(v, 1) and v <= 8, "an integer from 1 to 8")),
    **dict.fromkeys(("max_depth", "features_per_split"),
                    (lambda v: v is None or _integer(v, 1), "null or an integer >= 1")),
    **dict.fromkeys(("bootstrap", "stratify"),
                    (lambda v: isinstance(v, bool), "true or false")),
    "seed": (lambda v: _integer(v, 0), "an integer >= 0"),
}


def check_values(**values) -> None:
    """Raise ConfigError for the first of ``values`` (by name) that breaks
    its rule in ``VALUE_RULES``."""
    for name, value in values.items():
        test, wording = VALUE_RULES[name]
        if not test(value):
            raise ConfigError(f"{name} must be {wording}, got {value!r}")


def seeded_rng(*keys: int) -> np.random.Generator:
    """The PCG64 generator of ``keys``: a seed, then any stream ids.  One
    key draws what ``PCG64(seed)`` draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


def check_keys(doc, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ConfigError unless ``doc`` is a JSON object with every
    ``required`` key and no key outside ``required`` and ``optional``.

    An unknown key is refused rather than ignored, so a misspelled optional
    key cannot silently leave its default in place.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r}")
    known = {*required, *optional}
    unknown = sorted(str(key) for key in doc if key not in known)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}; expected keys among {sorted(known)}")


def read_csv(path: str | Path, header: str, parse_row: Callable[[str], object]) -> list:
    """Non-empty rows after ``header``, parsed; row errors get file:line prepended."""
    lines = read_text(path).split("\n")
    if lines[0] != header:
        raise SchemaError(f"{path}: expected header {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            rows.append(parse_row(line))
        except _ROW_ERRORS as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return rows


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line, LF-terminated, as UTF-8; a path that cannot be
    written raises ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_json(path: str | Path, payload, **dump_options) -> None:
    """Write ``json.dumps(payload, **dump_options)`` plus a newline; the text
    is built first, so a payload that cannot be serialized leaves no file."""
    write_lines(path, [json.dumps(payload, **dump_options)])


def read_corpus_csv(path: str | Path) -> list[NameRecord]:
    """Read a corpus CSV, raising SchemaError with the offending line number."""
    return read_csv(path, CSV_HEADER, parse_csv_row)


def write_corpus_csv(path: str | Path, records: Iterable[NameRecord]) -> None:
    write_lines(path, [CSV_HEADER, *map(format_csv_row, records)])

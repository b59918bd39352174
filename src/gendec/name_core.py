"""Core domain types for Japanese full names with binary gender labels.

Names are stored family-name-first in all three scripts.  The corpus CSV
schema is ``romaji,kanji,hiragana,gender``: UTF-8, comma separated, no
quoting (fields never contain commas), LF line endings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import LabelError, MalformedNameError, SchemaError

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
GENDERS = (Gender.FEMALE, Gender.MALE)


class NamePart(str, Enum):
    """Which portion of a full name feeds the classifier."""

    FIRST = "first"
    LAST = "last"
    FULL = "full"


class InputVariant(str, Enum):
    """Romaji source: the stored column, or a transliteration of the kanji."""

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


def part_text(romaji: str, part: NamePart) -> str:
    """Normalized text of ``part`` of a "Family Given" romaji full name."""
    norm = normalize_romaji(romaji)
    tokens = norm.split(" ")
    if len(tokens) != 2 or not all(tokens):
        raise MalformedNameError(f"expected 'Family Given', got {romaji!r}")
    if part is NamePart.LAST:
        return tokens[0]
    if part is NamePart.FIRST:
        return tokens[1]
    return norm


def split_parts(record: NameRecord, part: NamePart) -> str:
    """Normalized text of ``part`` of a record's stored romaji."""
    return part_text(record.romaji, part)


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


def read_corpus_csv(path: str | Path) -> list[NameRecord]:
    """Read a corpus CSV, raising SchemaError with the offending line number."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise SchemaError(f"{path}: expected header {CSV_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            records.append(parse_csv_row(line))
        except _ROW_ERRORS as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return records


def write_corpus_csv(path: str | Path, records: Iterable[NameRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in records:
            fh.write(format_csv_row(record) + "\n")

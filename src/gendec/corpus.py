"""Dataset construction from raw name-part lists, splitting, and statistics.

Raw input CSVs have the header ``romaji,hiragana,kanji,gender,role``.
Family-role rows are gender-neutral (the gender field may be empty or
"neutral"); given-role rows carry exactly one gender.  The built corpus
uses the ``name_core`` CSV schema, with a JSON metadata sidecar recording
seed, pairing mode, ratios, PRNG identifier, and row counts.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    LabelError,
    MalformedNameError,
    SchemaError,
)
from .name_core import (
    Gender,
    GENDERS,
    NamePart,
    NameRecord,
    NameRole,
    check_values,
    enum_member,
    normalize_romaji,
    read_csv,
    seeded_rng,
    write_lines,
)
from .translit import align_records

RAW_CSV_HEADER = "romaji,hiragana,kanji,gender,role"

#: Identifier of the shuffle PRNG, recorded in metadata sidecars.
PRNG_ID = "pcg64"


@dataclass(frozen=True)
class RawNamePart:
    """One raw inventory row: a single family or given name in three scripts."""

    romaji: str
    hiragana: str
    kanji: str
    gender: Optional[Gender]
    role: NameRole

    def __post_init__(self) -> None:
        for name, value in (("romaji", self.romaji), ("hiragana", self.hiragana),
                            ("kanji", self.kanji)):
            if not value:
                raise MalformedNameError(f"empty {name} in raw name part")
        if " " in self.romaji:
            raise MalformedNameError(
                f"raw name part romaji must be a single token, got {self.romaji!r}"
            )
        enum_member(NameRole, self.role, "role")
        if self.gender is not None:
            enum_member(Gender, self.gender, "gender")
        if self.role is NameRole.GIVEN and self.gender is None:
            raise LabelError(f"given-name row {self.romaji!r} requires a gender")


def parse_raw_row(line: str) -> RawNamePart:
    fields = line.rstrip("\n").split(",")
    if len(fields) != 5:
        raise SchemaError(f"expected 5 columns, got {len(fields)}: {line!r}")
    romaji, hiragana, kanji, gender_raw, role_raw = fields
    try:
        role = NameRole(role_raw)
    except ValueError:
        raise SchemaError(f"role must be 'family' or 'given', got {role_raw!r}") from None
    gender: Optional[Gender]
    if role is NameRole.FAMILY:
        # Family names are usable for both genders; any label is dropped.
        gender = None
        if gender_raw not in ("", "neutral", "female", "male"):
            raise LabelError(f"unknown gender label {gender_raw!r}")
    else:
        gender = Gender.parse(gender_raw)
    return RawNamePart(
        romaji=romaji.strip(),
        hiragana=hiragana,
        kanji=kanji,
        gender=gender,
        role=role,
    )


def read_raw_csv(path: str | Path) -> list[RawNamePart]:
    return read_csv(path, RAW_CSV_HEADER, parse_raw_row)


def format_raw_row(row: RawNamePart) -> str:
    gender = row.gender.value if row.gender else "neutral"
    return f"{row.romaji},{row.hiragana},{row.kanji},{gender},{row.role.value}"


def write_raw_csv(path: str | Path, rows: Iterable[RawNamePart]) -> None:
    write_lines(path, [RAW_CSV_HEADER, *map(format_raw_row, rows)])


def dedupe_first_names(rows: Sequence[RawNamePart]) -> list[RawNamePart]:
    """Keep one row per distinct (kanji, gender) pair; first occurrence wins."""
    seen: set[tuple[str, Optional[Gender]]] = set()
    out = []
    for row in rows:
        key = (row.kanji, row.gender)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


class PairingMode(str, Enum):
    """How given names are joined with family names."""

    ONE_TO_ONE = "one-to-one"
    CROSS_K = "cross-k"


@dataclass(frozen=True)
class PairingConfig:
    mode: PairingMode = PairingMode.ONE_TO_ONE
    k: int = 1

    def __post_init__(self) -> None:
        enum_member(PairingMode, self.mode, "pairing mode")
        check_values(k=self.k)
        if self.mode is PairingMode.ONE_TO_ONE and self.k != 1:
            raise ConfigError(f"one-to-one pairing pairs one family per given name; "
                              f"k must be 1, got {self.k}")


def build_dataset(
    firsts: Sequence[RawNamePart],
    lasts: Sequence[RawNamePart],
    pairing: PairingConfig = PairingConfig(),
    seed: int = 42,
) -> list[NameRecord]:
    """Join given names with family names into full-name records.

    Each record's gender is its given name's gender; family names carry
    none.  One-to-one mode draws one family name per given name (with
    replacement); cross-k pairs each given name with k distinct families.
    """
    check_values(seed=seed)
    if not firsts or not lasts:
        raise EmptyInputError("need at least one given name and one family name")
    if any(row.role is not NameRole.GIVEN for row in firsts):
        raise ConfigError("firsts must contain only given-role rows")
    if any(row.role is not NameRole.FAMILY for row in lasts):
        raise ConfigError("lasts must contain only family-role rows")
    rng = seeded_rng(seed)
    records = []

    def make_record(family: RawNamePart, given: RawNamePart) -> NameRecord:
        assert given.gender is not None
        return NameRecord(
            romaji=f"{family.romaji} {given.romaji}",
            kanji=f"{family.kanji}{given.kanji}",
            hiragana=f"{family.hiragana}{given.hiragana}",
            gender=given.gender,
        )

    if pairing.mode is PairingMode.ONE_TO_ONE:
        choices = rng.integers(0, len(lasts), size=len(firsts))
        for given, last_idx in zip(firsts, choices):
            records.append(make_record(lasts[int(last_idx)], given))
    else:
        if pairing.k > len(lasts):
            raise ConfigError(
                f"cross-k k={pairing.k} exceeds family inventory {len(lasts)}"
            )
        for given in firsts:
            picked = rng.choice(len(lasts), size=pairing.k, replace=False)
            for last_idx in picked:
                records.append(make_record(lasts[int(last_idx)], given))
    return records


@dataclass(frozen=True)
class SplitRatios:
    train: float
    val: float
    test: float

    def __post_init__(self) -> None:
        for name, value in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
                raise ConfigError(f"{name} ratio must be in (0, 1), got {value!r}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError(
                f"ratios must sum to 1, got {self.train + self.val + self.test}"
            )


def _shuffle_slice(
    records: Sequence[NameRecord], ratios: SplitRatios, rng: np.random.Generator
) -> tuple[list[NameRecord], list[NameRecord], list[NameRecord]]:
    n = len(records)
    order = rng.permutation(n)
    shuffled = [records[int(i)] for i in order]
    i = math.floor(n * ratios.train)
    j = math.floor(n * (ratios.train + ratios.val))
    return shuffled[:i], shuffled[i:j], shuffled[j:]


def split_dataset(
    records: Sequence[NameRecord],
    ratios: SplitRatios,
    seed: int = 42,
    stratify: bool = True,
) -> tuple[list[NameRecord], list[NameRecord], list[NameRecord]]:
    """Seeded shuffle then contiguous slicing into train/val/test.

    With ``stratify`` the shuffle-and-slice runs per gender and the
    slices are concatenated (female block first), keeping each split's
    gender balance within one record of the corpus balance.
    """
    check_values(seed=seed, stratify=stratify)
    if not records:
        raise EmptyInputError("cannot split an empty record list")
    rng = seeded_rng(seed)
    if not stratify:
        return _shuffle_slice(records, ratios, rng)
    train: list[NameRecord] = []
    val: list[NameRecord] = []
    test: list[NameRecord] = []
    for gender in GENDERS:
        subset = [r for r in records if r.gender is gender]
        if not subset:
            continue
        tr, va, te = _shuffle_slice(subset, ratios, rng)
        train.extend(tr)
        val.extend(va)
        test.extend(te)
    return train, val, test


def homonym_stats(records: Sequence[NameRecord]) -> dict[Gender, dict[int, int]]:
    """Per gender, a histogram: distinct-kanji-expression count -> number of
    romaji first names with that many spellings.

    Records whose scripts cannot be aligned into parts are skipped.
    """
    expressions: dict[tuple[Gender, str], set[str]] = defaultdict(set)
    for record, aligned in zip(records, align_records(records)):
        if aligned is None:
            continue
        first = normalize_romaji(record.romaji).split(" ")[1]
        expressions[(record.gender, first)].add(aligned.kanji_given)
    hist = {gender: Counter() for gender in GENDERS}
    for (gender, _first), kanji_set in expressions.items():
        hist[gender][len(kanji_set)] += 1
    return hist


def char_frequency(
    records: Sequence[NameRecord],
    gender: Gender,
    part: NamePart = NamePart.FIRST,
) -> list[tuple[str, int]]:
    """Kanji character counts over one gender's name parts.

    Sorted by count descending, ties by code point ascending.  ``FULL``
    counts the whole kanji column; first/last need script alignment and
    skip unalignable records.
    """
    enum_member(Gender, gender, "gender")
    enum_member(NamePart, part, "part")
    counts: Counter = Counter()
    if part is NamePart.FULL:
        for record in records:
            if record.gender is gender:
                counts.update(record.kanji)
    else:
        for record, aligned in zip(records, align_records(records)):
            if record.gender is not gender or aligned is None:
                continue
            counts.update(
                aligned.kanji_given if part is NamePart.FIRST else aligned.kanji_family
            )
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def gender_balance(records: Sequence[NameRecord]) -> dict[str, float]:
    """Fraction of records per gender label."""
    counts = Counter(r.gender for r in records)
    total = len(records)
    return {g.value: counts.get(g, 0) / total if total else 0.0 for g in GENDERS}


def write_homonym_csv(path: str | Path, table: dict[int, int]) -> None:
    write_lines(path, ["key,count", *(f"{k},{table[k]}" for k in sorted(table))])


def write_char_csv(path: str | Path, items: Sequence[tuple[str, int]]) -> None:
    write_lines(path, ["char,count", *(f"{char},{count}" for char, count in items)])

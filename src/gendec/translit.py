"""Hiragana-to-romaji transliteration and a corpus-derived kanji converter.

The transducer implements modified Hepburn with the conventions used by
the romaji column of the corpus: syllabic n is always "n" (no apostrophe,
no m before b/p/m), long vowels are spelled out kana by kana (ou, uu),
and sokuon gemination of ch renders as "tch".

Kanji conversion is a whole-part dictionary lookup: name readings are
non-compositional, so the dictionary is built by aligning the training
corpus rather than composing per-character readings.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import (
    SchemaError,
    TransliterationWarning,
    UnknownKanaError,
    UnknownKanjiError,
)
from .name_core import (
    NameRecord, NameRole, check_keys, normalize_romaji, read_json, write_json,
)

# Single-kana syllables (gojuon plus voiced/semi-voiced rows and ん).
_BASE = {
    "あ": "a", "い": "i", "う": "u", "え": "e", "お": "o",
    "か": "ka", "き": "ki", "く": "ku", "け": "ke", "こ": "ko",
    "が": "ga", "ぎ": "gi", "ぐ": "gu", "げ": "ge", "ご": "go",
    "さ": "sa", "し": "shi", "す": "su", "せ": "se", "そ": "so",
    "ざ": "za", "じ": "ji", "ず": "zu", "ぜ": "ze", "ぞ": "zo",
    "た": "ta", "ち": "chi", "つ": "tsu", "て": "te", "と": "to",
    "だ": "da", "ぢ": "ji", "づ": "zu", "で": "de", "ど": "do",
    "な": "na", "に": "ni", "ぬ": "nu", "ね": "ne", "の": "no",
    "は": "ha", "ひ": "hi", "ふ": "fu", "へ": "he", "ほ": "ho",
    "ば": "ba", "び": "bi", "ぶ": "bu", "べ": "be", "ぼ": "bo",
    "ぱ": "pa", "ぴ": "pi", "ぷ": "pu", "ぺ": "pe", "ぽ": "po",
    "ま": "ma", "み": "mi", "む": "mu", "め": "me", "も": "mo",
    "や": "ya", "ゆ": "yu", "よ": "yo",
    "ら": "ra", "り": "ri", "る": "ru", "れ": "re", "ろ": "ro",
    "わ": "wa", "ゐ": "i", "ゑ": "e", "を": "o",
    "ん": "n",
    "ゔ": "vu",
}

# Two-kana digraphs: the full ゃゅょ set plus a few loan-sound pairs.
_DIGRAPHS = {
    "きゃ": "kya", "きゅ": "kyu", "きょ": "kyo",
    "ぎゃ": "gya", "ぎゅ": "gyu", "ぎょ": "gyo",
    "しゃ": "sha", "しゅ": "shu", "しょ": "sho",
    "じゃ": "ja", "じゅ": "ju", "じょ": "jo",
    "ちゃ": "cha", "ちゅ": "chu", "ちょ": "cho",
    "ぢゃ": "ja", "ぢゅ": "ju", "ぢょ": "jo",
    "にゃ": "nya", "にゅ": "nyu", "にょ": "nyo",
    "ひゃ": "hya", "ひゅ": "hyu", "ひょ": "hyo",
    "びゃ": "bya", "びゅ": "byu", "びょ": "byo",
    "ぴゃ": "pya", "ぴゅ": "pyu", "ぴょ": "pyo",
    "みゃ": "mya", "みゅ": "myu", "みょ": "myo",
    "りゃ": "rya", "りゅ": "ryu", "りょ": "ryo",
    "しぇ": "she", "ちぇ": "che", "じぇ": "je",
    "ふぁ": "fa", "ふぃ": "fi", "ふぇ": "fe", "ふぉ": "fo",
    "てぃ": "ti", "でぃ": "di",
}

# Isolated small kana render as their base sound (degenerate in names).
_SMALL_FALLBACK = {
    "ぁ": "a", "ぃ": "i", "ぅ": "u", "ぇ": "e", "ぉ": "o",
    "ゃ": "ya", "ゅ": "yu", "ょ": "yo", "ゎ": "wa",
    "ゕ": "ka", "ゖ": "ke",
}

_SOKUON = "っ"
_PROLONG = "ー"
_VOWELS = "aeiou"
_SMALL_KANA = frozenset(_SMALL_FALLBACK)


def kana_to_romaji(kana: str) -> str:
    """Transliterate a hiragana string to lowercase ASCII romaji.

    Digraphs apply before single-kana rules; sokuon doubles the next
    consonant (tch for ch); ー repeats the previous output vowel.
    Raises UnknownKanaError for characters outside the rule table.
    """
    out: list[str] = []
    pending_sokuon = 0
    i = 0
    n = len(kana)
    while i < n:
        ch = kana[i]
        if ch == _SOKUON:
            pending_sokuon += 1
            i += 1
            continue
        if ch == _PROLONG:
            if pending_sokuon:
                warnings.warn(
                    "sokuon before prolonged-sound mark rendered literally",
                    TransliterationWarning,
                    stacklevel=2,
                )
                out.append("tsu" * pending_sokuon)
                pending_sokuon = 0
            if out and out[-1][-1] in _VOWELS:
                out.append(out[-1][-1])
            else:
                warnings.warn(
                    "prolonged-sound mark with no preceding vowel ignored",
                    TransliterationWarning,
                    stacklevel=2,
                )
            i += 1
            continue
        syllable = None
        if i + 1 < n:
            syllable = _DIGRAPHS.get(kana[i : i + 2])
            if syllable is not None:
                i += 2
        if syllable is None:
            syllable = _BASE.get(ch)
            if syllable is None:
                syllable = _SMALL_FALLBACK.get(ch)
                if syllable is not None:
                    warnings.warn(
                        f"isolated small kana {ch!r} rendered as {syllable!r}",
                        TransliterationWarning,
                        stacklevel=2,
                    )
            if syllable is None:
                raise UnknownKanaError(f"no romaji rule for {ch!r} at index {i}")
            i += 1
        if pending_sokuon:
            if syllable[0] in _VOWELS:
                warnings.warn(
                    "sokuon before a vowel rendered literally",
                    TransliterationWarning,
                    stacklevel=2,
                )
                out.append("tsu" * pending_sokuon)
            else:
                doubled = "t" if syllable.startswith("ch") else syllable[0]
                out.append(doubled * pending_sokuon)
            pending_sokuon = 0
        out.append(syllable)
    if pending_sokuon:
        warnings.warn(
            "trailing sokuon rendered literally",
            TransliterationWarning,
            stacklevel=2,
        )
        out.append("tsu" * pending_sokuon)
    return "".join(out)


def _romaji_or_none(kana: str) -> Optional[str]:
    """kana_to_romaji that swallows degenerate-input warnings and errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransliterationWarning)
        try:
            return kana_to_romaji(kana)
        except UnknownKanaError:
            return None


def kana_boundary(hiragana: str, family_token: str) -> Optional[int]:
    """Index splitting ``hiragana`` so the prefix reads as ``family_token``.

    Tries split points in order (so the shortest matching prefix wins),
    skipping points that fall inside a syllable (after a sokuon or before
    a small kana or ー).  Returns None when no prefix matches.
    """
    for i in range(1, len(hiragana)):
        if hiragana[i - 1] == _SOKUON:
            continue
        if hiragana[i] in _SMALL_KANA or hiragana[i] == _PROLONG:
            continue
        if _romaji_or_none(hiragana[:i]) == family_token:
            return i
    return None


@dataclass(frozen=True)
class AlignedName:
    """A record's kanji and hiragana split into family and given parts."""

    kanji_family: str
    kanji_given: str
    kana_family: str
    kana_given: str


def _prior_kanji_boundary(length: int) -> int:
    """Default kanji split: the given name takes the last two characters."""
    return max(length - 2, 1)


class RecordAligner:
    """Splits corpus records into family/given parts in both scripts.

    The hiragana boundary comes from transliterating prefixes against the
    romaji family token.  The kanji boundary is under-determined per
    record, so it is bootstrapped: records are first split with a
    length prior, then re-split to agree with the (kanji part, reading)
    pairs that the prior pass saw most often.
    """

    def __init__(self, records: Sequence[NameRecord]):
        self.skipped = 0
        kana_splits: list[Optional[tuple[str, str, str]]] = []
        for record in records:
            family_token = normalize_romaji(record.romaji).split(" ")[0]
            cut = kana_boundary(record.hiragana, family_token)
            if cut is None or len(record.kanji) < 2:
                kana_splits.append(None)
                self.skipped += 1
                continue
            kana_splits.append(
                (record.kanji, record.hiragana[:cut], record.hiragana[cut:])
            )

        boundaries = [
            None if s is None else _prior_kanji_boundary(len(s[0]))
            for s in kana_splits
        ]
        family_votes: Counter = Counter()
        given_votes: Counter = Counter()
        for split, cut in zip(kana_splits, boundaries):
            if split is None:
                continue
            kanji, kf, kg = split
            family_votes[(kanji[:cut], kf)] += 1
            given_votes[(kanji[cut:], kg)] += 1
        for idx, split in enumerate(kana_splits):
            if split is None:
                continue
            kanji, kf, kg = split
            current = boundaries[idx]
            best_cut = current
            best_score = -1
            for cut in range(1, len(kanji)):
                # Leave-one-out: a record's own votes sit at its current
                # boundary and must not anchor it there.
                score = (
                    family_votes[(kanji[:cut], kf)]
                    + given_votes[(kanji[cut:], kg)]
                    - (2 if cut == current else 0)
                )
                if score > best_score:
                    best_score, best_cut = score, cut
                elif score == best_score and cut == current:
                    best_cut = cut
            boundaries[idx] = best_cut

        self.aligned: list[Optional[AlignedName]] = []
        for split, cut in zip(kana_splits, boundaries):
            if split is None:
                self.aligned.append(None)
                continue
            kanji, kf, kg = split
            self.aligned.append(
                AlignedName(
                    kanji_family=kanji[:cut],
                    kanji_given=kanji[cut:],
                    kana_family=kf,
                    kana_given=kg,
                )
            )


@dataclass(frozen=True)
class ReadingDictionary:
    """Kanji name parts mapped to observed kana readings with counts.

    Lookup is exact-match on the whole part.  Reading lists are sorted by
    descending count, then lexicographically, so the first entry is the
    canonical reading.
    """

    family: dict[str, tuple[tuple[str, int], ...]]
    given: dict[str, tuple[tuple[str, int], ...]]

    SCHEMA_VERSION = 1

    def table(self, role: NameRole) -> dict[str, tuple[tuple[str, int], ...]]:
        return self.family if role is NameRole.FAMILY else self.given

    def best_reading(self, kanji_part: str, role: NameRole) -> str:
        readings = self.table(role).get(kanji_part)
        if not readings:
            raise UnknownKanjiError(
                f"no {role.value} reading recorded for {kanji_part!r}"
            )
        return readings[0][0]

    def part_weight(self, kanji_part: str, role: NameRole) -> int:
        """Total observation count for a part, 0 when absent."""
        readings = self.table(role).get(kanji_part)
        return sum(count for _, count in readings) if readings else 0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "family": {k: [[r, c] for r, c in v] for k, v in sorted(self.family.items())},
            "given": {k: [[r, c] for r, c in v] for k, v in sorted(self.given.items())},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReadingDictionary":
        """Dictionary from its JSON document; a malformed one raises SchemaError."""
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != cls.SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported reading dictionary schema_version {version!r}"
            )

        def load(role: str) -> dict[str, tuple[tuple[str, int], ...]]:
            table = {
                kanji: tuple((reading, count) for reading, count in readings)
                for kanji, readings in doc[role].items()
            }
            pairs = [pair for readings in table.values() for pair in readings]
            if not all(isinstance(r, str) and type(c) is int for r, c in pairs):
                raise TypeError(f"{role} readings must be [string, integer] pairs")
            return table

        try:
            check_keys(doc, ("schema_version", "family", "given"), error=ValueError)
            return cls(family=load("family"), given=load("given"))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(
                f"malformed reading dictionary: {type(exc).__name__}: {exc}"
            ) from None

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "ReadingDictionary":
        return cls.from_json_dict(read_json(path))


def _sorted_readings(counter: Counter) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(counter.items(), key=lambda item: (-item[1], item[0])))


def build_reading_dictionary(records: Sequence[NameRecord]) -> tuple[ReadingDictionary, int]:
    """Build part-reading tables from a record list (training split only).

    Returns the dictionary and the number of records skipped because
    their hiragana could not be aligned to the romaji family token.
    """
    aligner = RecordAligner(records)
    family: dict[str, Counter] = defaultdict(Counter)
    given: dict[str, Counter] = defaultdict(Counter)
    for aligned in aligner.aligned:
        if aligned is None:
            continue
        family[aligned.kanji_family][aligned.kana_family] += 1
        given[aligned.kanji_given][aligned.kana_given] += 1
    dictionary = ReadingDictionary(
        family={k: _sorted_readings(c) for k, c in family.items()},
        given={k: _sorted_readings(c) for k, c in given.items()},
    )
    return dictionary, aligner.skipped


def kanji_to_romaji(
    kanji_part: str, role: NameRole, reading_dict: ReadingDictionary
) -> str:
    """Romaji of a kanji part via its most frequent recorded reading."""
    return kana_to_romaji(reading_dict.best_reading(kanji_part, role))


@dataclass(frozen=True)
class ConvertedName:
    """Converted romaji for one record with per-part fallback flags."""

    family: str
    given: str
    family_fell_back: bool
    given_fell_back: bool


def convert_name(record: NameRecord, reading_dict: ReadingDictionary) -> ConvertedName:
    """Convert a record's kanji to romaji using only the dictionary.

    The kanji is split at the boundary whose parts the dictionary has
    seen most often (ties prefer the length prior, then the shortest
    family part).  A part absent from the dictionary falls back to the
    corresponding original romaji token.  The record's hiragana is never
    consulted: conversion must not peek at the stored reading.
    """
    family_token, given_token = normalize_romaji(record.romaji).split(" ")
    kanji = record.kanji
    if len(kanji) < 2:
        return ConvertedName(family_token, given_token, True, True)
    prior = _prior_kanji_boundary(len(kanji))
    best_cut, best_score = None, 0
    for cut in range(1, len(kanji)):
        score = reading_dict.part_weight(
            kanji[:cut], NameRole.FAMILY
        ) + reading_dict.part_weight(kanji[cut:], NameRole.GIVEN)
        better = score > best_score
        tied = score == best_score and best_cut is not None
        if better or (tied and cut == prior and best_cut != prior):
            best_cut, best_score = cut, score
    if best_cut is None:
        return ConvertedName(family_token, given_token, True, True)

    def convert_part(part: str, role: NameRole, fallback: str) -> tuple[str, bool]:
        try:
            return kanji_to_romaji(part, role, reading_dict), False
        except UnknownKanjiError:
            return fallback, True

    family, family_fb = convert_part(kanji[:best_cut], NameRole.FAMILY, family_token)
    given, given_fb = convert_part(kanji[best_cut:], NameRole.GIVEN, given_token)
    return ConvertedName(family, given, family_fb, given_fb)


def kana_consistency_rate(records: Iterable[NameRecord]) -> float:
    """Fraction of records whose hiragana transliterates to the romaji column.

    Diagnostic only; compares against the normalized romaji with its
    space removed.  Untransliterable hiragana counts as a mismatch.
    """
    total = 0
    matches = 0
    for record in records:
        total += 1
        expected = normalize_romaji(record.romaji).replace(" ", "")
        if _romaji_or_none(record.hiragana) == expected:
            matches += 1
    return matches / total if total else 0.0

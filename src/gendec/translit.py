"""Hiragana-to-romaji transliteration and a corpus-derived kanji converter.

The transducer implements modified Hepburn with the conventions used by
the romaji column of the corpus: syllabic n is always "n" (no apostrophe,
no m before b/p/m), long vowels are spelled out kana by kana (ou, uu),
and sokuon gemination of ch renders as "tch".  One left-to-right pass
(``_syllables``) yields each syllable with the kana index where it ends;
``kana_to_romaji`` joins it, ``kana_boundary`` matches a romaji family
token against it, and degenerate input becomes notes that only
``kana_to_romaji`` turns into warnings.

Kanji conversion is a whole-part dictionary lookup: name readings are
non-compositional, so the dictionary is built by aligning the training
corpus rather than composing per-character readings.  One rule
(``_best_cut``) picks where a kanji name splits into family and given
parts, both when aligning the corpus and when converting a name.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ConfigError, SchemaError, TransliterationWarning, UnknownKanaError
from .name_core import NameRecord, NameRole, check_keys, normalize_romaji

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
_VOWELS = frozenset("aeiou")
# A hiragana split never falls before these: they extend the syllable before them.
_SPLIT_BLOCKERS = frozenset(_SMALL_FALLBACK) | {_PROLONG}


def _syllables(kana: str, notes: list[str]) -> Iterator[tuple[int, str]]:
    """Yield ``(end, romaji)`` per syllable of ``kana``, left to right.

    ``end`` is the kana index just past the syllable.  Digraphs apply
    before single-kana rules; a sokuon yields nothing itself but doubles
    the next syllable's consonant (tch for ch), so no ``end`` falls just
    after っ; ー repeats the previous output vowel.  Degenerate input
    renders literally and appends a note to ``notes``; a character outside
    the rule table raises UnknownKanaError.
    """
    last = ""
    sokuon = 0
    i = 0
    n = len(kana)
    while i < n:
        ch = kana[i]
        if ch == _SOKUON:
            sokuon += 1
            i += 1
            continue
        if ch == _PROLONG:
            romaji = "tsu" * sokuon
            if sokuon:
                notes.append("sokuon before prolonged-sound mark rendered literally")
            vowel = romaji[-1:] or last
            if vowel in _VOWELS:
                romaji += vowel
            else:
                notes.append("prolonged-sound mark with no preceding vowel ignored")
            i += 1
        else:
            syllable = _DIGRAPHS.get(kana[i : i + 2])
            if syllable is not None:
                i += 2
            else:
                syllable = _BASE.get(ch)
                if syllable is None:
                    syllable = _SMALL_FALLBACK.get(ch)
                    if syllable is None:
                        raise UnknownKanaError(f"no romaji rule for {ch!r} at index {i}")
                    notes.append(f"isolated small kana {ch!r} rendered as {syllable!r}")
                i += 1
            romaji = syllable
            if sokuon:
                double = "t" if syllable.startswith("ch") else syllable[0]
                if double in _VOWELS:
                    notes.append("sokuon before a vowel rendered literally")
                    double = "tsu"
                romaji = double * sokuon + syllable
        sokuon = 0
        last = romaji[-1:]
        yield i, romaji
    if sokuon:
        notes.append("trailing sokuon rendered literally")
        yield i, "tsu" * sokuon


def kana_to_romaji(kana: str) -> str:
    """Transliterate a hiragana string to lowercase ASCII romaji.

    Degenerate input (a trailing or stray sokuon, an isolated small kana,
    a ー with no vowel before it) renders literally with one
    TransliterationWarning per case, in input order.  Raises
    UnknownKanaError, after those warnings, for characters outside the
    rule table.
    """
    notes: list[str] = []
    try:
        return "".join([romaji for _, romaji in _syllables(kana, notes)])
    finally:
        for note in notes:
            warnings.warn(note, TransliterationWarning, stacklevel=2)


def _romaji_or_none(kana: str) -> Optional[str]:
    """kana_to_romaji without warnings; None for untransliterable kana."""
    try:
        return "".join(romaji for _, romaji in _syllables(kana, []))
    except UnknownKanaError:
        return None


def kana_boundary(hiragana: str, family_token: str) -> Optional[int]:
    """Index splitting ``hiragana`` so the prefix reads as ``family_token``.

    Reads one pass of syllables, so the shortest matching prefix wins.  A
    split never falls inside a syllable: after a sokuon or before a small
    kana or ー.  Returns None when no prefix matches.
    """
    romaji = ""
    try:
        for end, syllable in _syllables(hiragana, []):
            romaji += syllable
            if not family_token.startswith(romaji):
                return None
            if (romaji == family_token and end < len(hiragana)
                    and hiragana[end] not in _SPLIT_BLOCKERS):
                return end
    except UnknownKanaError:
        pass
    return None


@dataclass(frozen=True)
class AlignedName:
    """A record's kanji and hiragana split into family and given parts."""

    kanji_family: str
    kanji_given: str
    kana_family: str
    kana_given: str


def _prior_cut(kanji: str) -> int:
    """Default kanji split: the given name takes the last two characters."""
    return max(len(kanji) - 2, 1)


def _best_cut(kanji: str, score: Callable[[int], int]) -> tuple[int, int]:
    """The cut of ``kanji`` (at least two characters) with the highest
    ``score``, and that score.  Ties go to the length prior
    (``_prior_cut``), then to the shortest family part."""
    prior = _prior_cut(kanji)
    best, _, neg_cut = max((score(cut), cut == prior, -cut) for cut in range(1, len(kanji)))
    return -neg_cut, best


def align_records(records: Sequence[NameRecord]) -> list[Optional[AlignedName]]:
    """Split each record into family/given parts in both scripts.

    The hiragana boundary comes from transliterating prefixes against the
    romaji family token.  The kanji boundary is under-determined per
    record, so it is bootstrapped: records are first split with the
    length prior, then re-split to agree with the (kanji part, reading)
    pairs that the prior pass saw most often.  A record whose hiragana
    does not align, whose given kana does not transliterate, or whose
    kanji has fewer than two characters, is None.
    """
    splits: list[Optional[tuple[str, str, str, int]]] = []
    for record in records:
        kanji, hiragana = record.kanji, record.hiragana
        family_token = normalize_romaji(record.romaji).split(" ")[0]
        cut = kana_boundary(hiragana, family_token)
        if cut is None or len(kanji) < 2 or not _romaji_or_none(hiragana[cut:]):
            splits.append(None)
            continue
        splits.append((kanji, hiragana[:cut], hiragana[cut:], _prior_cut(kanji)))

    family_votes: Counter = Counter()
    given_votes: Counter = Counter()
    for kanji, kf, kg, prior in filter(None, splits):
        family_votes[(kanji[:prior], kf)] += 1
        given_votes[(kanji[prior:], kg)] += 1

    def resplit(kanji: str, kf: str, kg: str, prior: int) -> AlignedName:
        # Leave-one-out: a record's own votes sit at its prior cut and must
        # not anchor it there.
        cut, _ = _best_cut(kanji, lambda c: family_votes[(kanji[:c], kf)]
                           + given_votes[(kanji[c:], kg)] - (2 if c == prior else 0))
        return AlignedName(
            kanji_family=kanji[:cut],
            kanji_given=kanji[cut:],
            kana_family=kf,
            kana_given=kg,
        )

    return [None if split is None else resplit(*split) for split in splits]


@dataclass(frozen=True)
class ReadingDictionary:
    """Kanji name parts mapped to observed kana readings with counts.

    Lookup is exact-match on the whole part.  Reading lists are sorted by
    descending count, then lexicographically, so the first entry is the
    canonical reading.
    """

    family: dict[str, tuple[tuple[str, int], ...]]
    given: dict[str, tuple[tuple[str, int], ...]]

    @cached_property
    def parts(self) -> dict[NameRole, dict[str, tuple[int, str]]]:
        """Per role, each part's total count and the romaji of its canonical
        reading, transliterated once per dictionary on first use, so the
        tables must not change after it.  A part with no readings is left
        out."""
        return {role: {part: (sum(count for _, count in readings),
                              kana_to_romaji(readings[0][0]))
                       for part, readings in table.items() if readings}
                for role, table in zip(NameRole, (self.family, self.given))}

    def to_json_dict(self) -> dict:
        return {
            "family": {k: [[r, c] for r, c in v] for k, v in sorted(self.family.items())},
            "given": {k: [[r, c] for r, c in v] for k, v in sorted(self.given.items())},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReadingDictionary":
        """Dictionary from the table a converted model file embeds; a malformed
        one raises SchemaError.

        Every reading must transliterate to non-empty romaji, so converting
        a part the dictionary holds never fails.
        """

        def read_table(role: str) -> dict[str, tuple[tuple[str, int], ...]]:
            table = {
                kanji: tuple((reading, count) for reading, count in readings)
                for kanji, readings in doc[role].items()
            }
            for kanji, readings in table.items():
                if not all(isinstance(r, str) and type(c) is int for r, c in readings):
                    raise TypeError(f"{role} readings must be [string, integer] pairs")
                canonical = _sorted_readings(dict(readings))
                if not readings or readings != canonical or readings[-1][1] < 1:
                    raise ValueError(
                        f"{role} readings of {kanji!r} must be a non-empty list of distinct "
                        f"readings, counts at least 1, by count descending, then reading")
                for reading, _ in readings:
                    if not _romaji_or_none(reading):
                        raise ValueError(f"{role} reading {reading!r} of {kanji!r} does "
                                         "not transliterate to romaji")
            return table

        try:
            check_keys(doc, ("family", "given"))
            return cls(family=read_table("family"), given=read_table("given"))
        except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
            raise SchemaError(
                f"malformed reading dictionary: {type(exc).__name__}: {exc}"
            ) from None


def _sorted_readings(counts: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def build_reading_dictionary(records: Sequence[NameRecord]) -> tuple[ReadingDictionary, int]:
    """Build part-reading tables from a record list (training split only).

    Returns the dictionary and the number of records skipped because
    their hiragana could not be aligned to the romaji family token.
    """
    aligned_records = align_records(records)
    family: dict[str, Counter] = defaultdict(Counter)
    given: dict[str, Counter] = defaultdict(Counter)
    for aligned in filter(None, aligned_records):
        family[aligned.kanji_family][aligned.kana_family] += 1
        given[aligned.kanji_given][aligned.kana_given] += 1
    dictionary = ReadingDictionary(
        family={k: _sorted_readings(c) for k, c in family.items()},
        given={k: _sorted_readings(c) for k, c in given.items()},
    )
    return dictionary, aligned_records.count(None)


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
    seen most often (``_best_cut``).  A part absent from the dictionary
    falls back to the corresponding original romaji token, and both do
    when no boundary has a known part.  The record's hiragana is never
    consulted: conversion must not peek at the stored reading.
    """
    family_token, given_token = normalize_romaji(record.romaji).split(" ")
    kanji = record.kanji
    if len(kanji) < 2:
        return ConvertedName(family_token, given_token, True, True)
    family_parts = reading_dict.parts[NameRole.FAMILY]
    given_parts = reading_dict.parts[NameRole.GIVEN]
    best_cut, score = _best_cut(kanji, lambda cut: (
        family_parts.get(kanji[:cut], (0, None))[0]
        + given_parts.get(kanji[cut:], (0, None))[0]))
    if score <= 0:
        return ConvertedName(family_token, given_token, True, True)
    _, family = family_parts.get(kanji[:best_cut], (0, None))
    _, given = given_parts.get(kanji[best_cut:], (0, None))
    return ConvertedName(
        family_token if family is None else family,
        given_token if given is None else given,
        family is None,
        given is None,
    )


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

import warnings
from collections import Counter
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gendec import translit
from gendec.corpus import SplitRatios, split_dataset
from gendec.errors import SchemaError, TransliterationWarning, UnknownKanaError
from gendec.evaluate import extract_texts
from gendec.name_core import (
    Gender, InputVariant, NamePart, NameRecord, NameRole, normalize_romaji,
)
from gendec.translit import (
    _BASE,
    _DIGRAPHS,
    _PROLONG,
    _SMALL_FALLBACK,
    _SOKUON,
    _VOWELS,
    AlignedName,
    ConvertedName,
    ReadingDictionary,
    align_records,
    build_reading_dictionary,
    convert_name,
    kana_boundary,
    kana_consistency_rate,
    kana_to_romaji,
)
from tests.conftest import UNREADABLE_GIVEN_RECORDS

# Hand-checked Hepburn pairs: plain syllables, voiced rows, digraphs,
# sokuon (incl. tch), syllabic n, spelled-out long vowels, and the
# prolonged-sound mark.
HEPBURN_PAIRS = [
    ("あい", "ai"), ("うえ", "ue"), ("おか", "oka"), ("きく", "kiku"),
    ("けこ", "keko"), ("がぎ", "gagi"), ("ぐげご", "gugego"),
    ("さしすせそ", "sashisuseso"), ("ざじずぜぞ", "zajizuzezo"),
    ("たちつてと", "tachitsuteto"), ("だでど", "dadedo"),
    ("なにぬねの", "naninuneno"), ("はひふへほ", "hahifuheho"),
    ("ばびぶべぼ", "babibubebo"), ("ぱぴぷぺぽ", "papipupepo"),
    ("まみむめも", "mamimumemo"), ("やゆよ", "yayuyo"),
    ("らりるれろ", "rarirurero"), ("わ", "wa"), ("を", "o"), ("ん", "n"),
    ("きゃく", "kyaku"), ("きゅう", "kyuu"), ("きょう", "kyou"),
    ("ぎゃ", "gya"), ("しゃ", "sha"), ("しゅう", "shuu"), ("しょ", "sho"),
    ("じゃ", "ja"), ("じゅ", "ju"), ("じょ", "jo"),
    ("ちゃ", "cha"), ("ちゅう", "chuu"), ("ちょ", "cho"),
    ("にゃ", "nya"), ("ひゃ", "hya"), ("びょう", "byou"), ("ぴょん", "pyon"),
    ("みゃく", "myaku"), ("りょう", "ryou"),
    ("がっこう", "gakkou"), ("きって", "kitte"), ("ざっし", "zasshi"),
    ("まっちゃ", "matcha"), ("ちょっと", "chotto"), ("いっぽん", "ippon"),
    ("ずっと", "zutto"), ("さんぽ", "sanpo"), ("けんいち", "kenichi"),
    ("らーめん", "raamen"),
]


@pytest.mark.parametrize("kana,expected", HEPBURN_PAIRS)
def test_hepburn_pairs(kana, expected):
    assert kana_to_romaji(kana) == expected


def test_empty_input():
    assert kana_to_romaji("") == ""


def test_digraph():
    assert kana_to_romaji("きゃ") == "kya"


def test_unknown_kana_raises():
    with pytest.raises(UnknownKanaError):
        kana_to_romaji("玉")
    with pytest.raises(UnknownKanaError):
        kana_to_romaji("カタカナ")


def test_trailing_sokuon_fallback_warns():
    with pytest.warns(TransliterationWarning):
        assert kana_to_romaji("あっ") == "atsu"


def test_isolated_small_kana_warns():
    with pytest.warns(TransliterationWarning):
        assert kana_to_romaji("ゃ") == "ya"


def test_leading_prolong_ignored_with_warning():
    with pytest.warns(TransliterationWarning):
        assert kana_to_romaji("ー") == ""


_FULL_SYLLABLE_KANA = st.sampled_from(
    [k for k in "あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほまみむめもやゆよらりるれろわんがぎぐげござじずぜぞだでどばびぶべぼぱぴぷぺぽ"]
)


@given(st.lists(_FULL_SYLLABLE_KANA, max_size=12))
def test_output_is_lowercase_ascii(chars):
    out = kana_to_romaji("".join(chars))
    assert all("a" <= c <= "z" for c in out)


@given(st.lists(_FULL_SYLLABLE_KANA, min_size=1, max_size=8),
       st.lists(_FULL_SYLLABLE_KANA, min_size=1, max_size=8))
def test_concatenation_property(left, right):
    # Holds whenever the left part ends with a full syllable.
    a, b = "".join(left), "".join(right)
    assert kana_to_romaji(a + b) == kana_to_romaji(a) + kana_to_romaji(b)


def test_consistency_rate_on_reference_rows(reference_records):
    assert kana_consistency_rate(reference_records) == 1.0


def test_consistency_rate_on_fixture(fixture_records):
    assert kana_consistency_rate(fixture_records) == 1.0


class TestReadingDictionary:
    def test_single_record(self, reference_records):
        dictionary, skipped = build_reading_dictionary(reference_records[:1])
        assert skipped == 0
        assert dictionary.family == {"玉井": (("たまい", 1),)}
        assert dictionary.given == {"和善": (("かずよし", 1),)}

    def test_empty(self):
        dictionary, skipped = build_reading_dictionary([])
        assert dictionary.family == {} and dictionary.given == {}
        assert skipped == 0

    def test_homonym_given_names(self, reference_records):
        # Two distinct kanji spellings sharing one reading.
        dictionary, _ = build_reading_dictionary(reference_records[2:4])
        assert dictionary.given["由花"] == (("ゆか", 1),)
        assert dictionary.given["悠果"] == (("ゆか", 1),)

    def test_lookup(self, reference_records):
        dictionary, _ = build_reading_dictionary(reference_records)
        assert dictionary.parts[NameRole.FAMILY]["玉井"] == (1, "tamai")
        assert dictionary.parts[NameRole.GIVEN]["国重"] == (1, "kunishige")
        assert dictionary.parts[NameRole.GIVEN]["邦重"] == (1, "kunishige")

    def test_unknown_kanji(self):
        empty = ReadingDictionary(family={}, given={})
        assert empty.parts == {NameRole.FAMILY: {}, NameRole.GIVEN: {}}

    def test_highest_count_wins_then_lexicographic(self):
        dictionary = ReadingDictionary(
            family={},
            given={"愛": (("あい", 3), ("まな", 1)), "光": (("こう", 2), ("ひかり", 2))},
        )
        assert dictionary.parts[NameRole.GIVEN]["愛"] == (4, "ai")
        # Equal counts: lexicographically smallest reading.
        assert dictionary.parts[NameRole.GIVEN]["光"] == (4, "kou")

    def test_order_independence(self, fixture_records):
        forward, _ = build_reading_dictionary(fixture_records)
        backward, _ = build_reading_dictionary(list(reversed(fixture_records)))
        assert forward == backward

    def test_json_round_trip(self, fixture_records):
        dictionary, _ = build_reading_dictionary(fixture_records)
        doc = dictionary.to_json_dict()
        assert ReadingDictionary.from_json_dict(doc) == dictionary
        assert ReadingDictionary.from_json_dict(doc).to_json_dict() == doc

    @pytest.mark.parametrize("readings", [
        [["zzz", -5]], [["zzz", 0]], [], [["あい", 1], ["まな", 3]],
        [["まな", 2], ["あい", 2]], [["あい", 2], ["あい", 1]],
        [["zzz", 1]], [["ー", 1]], [["あい", 2], ["カズ", 1]],
    ], ids=["negative-count", "zero-count", "empty", "count-ascending",
            "reading-descending", "repeated-reading", "not-kana", "no-romaji",
            "katakana-runner-up"])
    def test_load_refuses_non_canonical_readings(self, readings):
        doc = {"family": {}, "given": {"愛": readings}}
        with pytest.raises(SchemaError, match="malformed reading dictionary"):
            ReadingDictionary.from_json_dict(doc)

    def test_load_refuses_unreadable_family_reading(self):
        doc = {"family": {"玉井": [["タマイ", 1]]}, "given": {}}
        with pytest.raises(SchemaError, match="does not transliterate"):
            ReadingDictionary.from_json_dict(doc)

    def test_skips_records_with_unreadable_given_kana(self):
        dictionary, skipped = build_reading_dictionary(UNREADABLE_GIVEN_RECORDS)
        assert skipped == 2
        assert dictionary.family == {"玉井": (("たまい", 1),), "岩間": (("いわま", 1),)}
        assert dictionary.given == {"和善": (("かずよし", 1),), "智子": (("ともこ", 1),)}
        assert ReadingDictionary.from_json_dict(dictionary.to_json_dict()) == dictionary

    def test_skips_unalignable_records(self):
        # Romaji family token does not match any hiragana prefix.
        bad = NameRecord("Zzz Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE)
        dictionary, skipped = build_reading_dictionary([bad])
        assert skipped == 1
        assert dictionary.family == {}


class TestConvertName:
    def test_known_record(self, reference_records):
        dictionary, _ = build_reading_dictionary(reference_records)
        converted = convert_name(reference_records[0], dictionary)
        assert (converted.family, converted.given) == ("tamai", "kazuyoshi")
        assert not converted.family_fell_back and not converted.given_fell_back

    def test_unknown_kanji_falls_back_to_romaji(self, reference_records):
        dictionary, _ = build_reading_dictionary(reference_records[:2])
        unknown = NameRecord("Aoki Midori", "青木翠", "あおきみどり", Gender.FEMALE)
        converted = convert_name(unknown, dictionary)
        assert (converted.family, converted.given) == ("aoki", "midori")
        assert converted.family_fell_back and converted.given_fell_back

    def test_partial_fallback(self, reference_records):
        dictionary, _ = build_reading_dictionary(reference_records)
        # Known family (玉井), unknown given.
        record = NameRecord("Tamai Midori", "玉井翠", "たまいみどり", Gender.FEMALE)
        converted = convert_name(record, dictionary)
        assert converted.family == "tamai" and not converted.family_fell_back
        assert converted.given == "midori" and converted.given_fell_back

    def test_never_reads_hiragana(self, reference_records):
        # A wrong stored reading must not leak into conversion output.
        dictionary, _ = build_reading_dictionary(reference_records)
        record = NameRecord("Sata Kunishige", "佐田国重", "さたくにしげ", Gender.MALE)
        converted = convert_name(record, dictionary)
        assert converted.given == "kunishige"


class TestRecordAligner:
    def test_reference_alignments(self, reference_records):
        aligned = align_records(reference_records)
        families = [a.kanji_family for a in aligned]
        givens = [a.kanji_given for a in aligned]
        assert families == ["玉井", "岩間", "白木", "池野", "佐田", "磯"]
        assert givens == ["和善", "智子", "由花", "悠果", "国重", "邦重"]

    def test_refinement_fixes_short_given_names(self):
        # 健 is a one-kanji given name; the 2-kanji prior splits it wrong,
        # and cross-record votes for the frequent family correct it.
        records = [
            NameRecord("Satou Kenichi", "佐藤健一", "さとうけんいち", Gender.MALE),
            NameRecord("Satou Taro", "佐藤太郎", "さとうたろう", Gender.MALE),
            NameRecord("Satou Ken", "佐藤健", "さとうけん", Gender.MALE),
        ]
        aligned = align_records(records)
        assert aligned[2].kanji_family == "佐藤"
        assert aligned[2].kanji_given == "健"


# --- oracles: the transducer, aligner and cut loop before the syllable pass ---
#
# Kept verbatim (renamed) from the code that ``_syllables``, ``align_records``
# and ``_best_cut`` replaced: the old transducer warned inline and
# ``kana_boundary`` transliterated every prefix again.

_SMALL_KANA = frozenset(_SMALL_FALLBACK)


def inline_warning_kana_to_romaji(kana: str) -> str:
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


def _oracle_romaji_or_none(kana: str) -> Optional[str]:
    """kana_to_romaji that swallows degenerate-input warnings and errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransliterationWarning)
        try:
            return inline_warning_kana_to_romaji(kana)
        except UnknownKanaError:
            return None


def prefix_scan_kana_boundary(hiragana: str, family_token: str) -> Optional[int]:
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
        if _oracle_romaji_or_none(hiragana[:i]) == family_token:
            return i
    return None


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
            cut = prefix_scan_kana_boundary(record.hiragana, family_token)
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


# --- oracle: per-record conversion before the part table ---
#
# Kept verbatim from the ``ReadingDictionary`` methods and helpers that
# ``ReadingDictionary.parts`` replaced (the methods now take the dictionary
# as their first argument); the old conversion re-summed counts and
# transliterated the canonical reading for every record.


class UnknownKanjiError(Exception):
    """A kanji name part is absent from the reading dictionary."""


def best_reading(reading_dict: ReadingDictionary, kanji_part: str, role: NameRole) -> str:
    readings = getattr(reading_dict, role.value).get(kanji_part)
    if not readings:
        raise UnknownKanjiError(
            f"no {role.value} reading recorded for {kanji_part!r}"
        )
    return readings[0][0]


def part_weight(reading_dict: ReadingDictionary, kanji_part: str, role: NameRole) -> int:
    """Total observation count for a part, 0 when absent."""
    readings = getattr(reading_dict, role.value).get(kanji_part)
    return sum(count for _, count in readings) if readings else 0


def kanji_to_romaji(
    kanji_part: str, role: NameRole, reading_dict: ReadingDictionary
) -> str:
    """Romaji of a kanji part via its most frequent recorded reading."""
    return kana_to_romaji(best_reading(reading_dict, kanji_part, role))


def loop_convert_name(record: NameRecord, reading_dict: ReadingDictionary) -> ConvertedName:
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
        score = part_weight(
            reading_dict, kanji[:cut], NameRole.FAMILY
        ) + part_weight(reading_dict, kanji[cut:], NameRole.GIVEN)
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


_KANA_PIECES = st.sampled_from([
    *"あいうえおかきしちつにはひふみやゆよりわをんがじぢぱ",
    _SOKUON, _PROLONG,
    *"ぁぃぇゃゅょゎゕ",
    "きゃ", "しゅ", "ちょ", "じぇ", "ふぁ", "てぃ",
    "カ",  # outside the rule table
])
kana_strings = st.lists(_KANA_PIECES, max_size=10).map("".join)


def _observe(transliterate, kana: str, action: str):
    """Romaji or the raised error, and every warning with where it points."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, TransliterationWarning)
        try:
            result = ("romaji", transliterate(kana))
        except (TransliterationWarning, UnknownKanaError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@settings(max_examples=500, deadline=None)
@given(kana=kana_strings, action=st.sampled_from(["always", "error"]))
@example(kana="っーゃカっ", action="always")
@example(kana="ぁカ", action="error")
def test_syllable_pass_equals_inline_warnings(kana, action):
    """Equal romaji, the same warnings in the same order pointing at the same
    caller line, and the same UnknownKanaError after them; with warnings as
    errors, the same first warning is raised."""
    assert (_observe(kana_to_romaji, kana, action)
            == _observe(inline_warning_kana_to_romaji, kana, action))


@settings(max_examples=500, deadline=None)
@given(kana=kana_strings, extra=st.sampled_from(["", "a", "n", "tsu"]))
@example(kana="たんーこ", extra="")
@example(kana="ーか", extra="")
def test_kana_boundary_equals_prefix_scan(kana, extra):
    """Tokens read off every prefix, cut short or run on, split the kana where
    transliterating each prefix again does."""
    tokens = {"", extra}
    for i in range(len(kana) + 1):
        romaji = _oracle_romaji_or_none(kana[:i])
        if romaji is not None:
            tokens |= {romaji, romaji[:-1], romaji + extra}
    for token in tokens:
        assert kana_boundary(kana, token) == prefix_scan_kana_boundary(kana, token)


# Records the synthetic corpus lacks: no aligning prefix, one kanji, a
# one-kanji given name that the votes re-split, kanji no dictionary holds.
_ODD_RECORDS = [
    NameRecord("Zzz Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE),
    NameRecord("Hayashi Ken", "林", "はやしけん", Gender.MALE),
    NameRecord("Satou Ken", "佐藤健", "さとうけん", Gender.MALE),
    NameRecord("Aoki Midori", "青木翠", "あおきみどり", Gender.FEMALE),
]


def test_align_records_equals_record_aligner(synthetic_corpus, fixture_records):
    for records in (synthetic_corpus, fixture_records + _ODD_RECORDS):
        oracle = RecordAligner(records)
        aligned = align_records(records)
        assert aligned == oracle.aligned
        assert aligned.count(None) == oracle.skipped
    # Moved off the prior cut (佐 / 藤健).
    assert aligned[-2] == AlignedName(
        kanji_family="佐藤", kanji_given="健", kana_family="さとう", kana_given="けん"
    )


def test_convert_name_equals_cut_loop(synthetic_corpus, fixture_records):
    records = synthetic_corpus + fixture_records + _ODD_RECORDS
    for train in (synthetic_corpus[::2], fixture_records):
        dictionary, _ = build_reading_dictionary(train)
        converted = [convert_name(r, dictionary) for r in records]
        assert converted == [loop_convert_name(r, dictionary) for r in records]
        assert converted[-1] == ConvertedName("aoki", "midori", True, True)
    # A cut is taken only when it scores above 0, even where a part is listed.
    zero = ReadingDictionary(family={"青": (("あお", 0),)}, given={})
    assert convert_name(_ODD_RECORDS[-1], zero) == loop_convert_name(_ODD_RECORDS[-1], zero)


# Hand-built dictionaries over a few kanji: counts may be 0, a part may list no
# readings, and a reading may be empty (romaji ""); names draw on kanji that no
# table holds too.
_PART_KANJI = "青木翠林佐藤"
_NAME_KANJI = _PART_KANJI + "健存"
_READINGS = st.sampled_from(["", "あお", "き", "みどり", "はやし", "さとう", "けん"])
_PART_TABLES = st.dictionaries(
    st.text(_PART_KANJI, min_size=1, max_size=3),
    st.lists(st.tuples(_READINGS, st.integers(0, 3)), max_size=3).map(tuple),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(family=_PART_TABLES, given_table=_PART_TABLES,
       kanji=st.text(_NAME_KANJI, min_size=1, max_size=4))
@example(family={"青": (("あお", 0),)}, given_table={"木翠": (("きみどり", 2),)}, kanji="青木翠")
@example(family={"青": ()}, given_table={"木": (("き", 1),)}, kanji="青木")
@example(family={"青": (("", 1),)}, given_table={}, kanji="青存")
def test_convert_name_equals_cut_loop_on_hand_built_tables(family, given_table, kanji):
    dictionary = ReadingDictionary(family=family, given=given_table)
    record = NameRecord("Aoki Midori", kanji, "あおきみどり", Gender.FEMALE)
    assert convert_name(record, dictionary) == loop_convert_name(record, dictionary)


def test_extract_texts_transliterates_each_part_once(synthetic_corpus, monkeypatch):
    train, _val, test = split_dataset(synthetic_corpus, SplitRatios(0.7, 0.2, 0.1), seed=42)
    dictionary, _ = build_reading_dictionary(train)
    calls = Counter()

    def counting_kana_to_romaji(kana: str) -> str:
        calls[kana] += 1
        return kana_to_romaji(kana)

    monkeypatch.setattr(translit, "kana_to_romaji", counting_kana_to_romaji)
    for records in (train, test):
        for part in NamePart:
            extract_texts(records, part, InputVariant.CONVERTED, dictionary)
    n_parts = len(dictionary.family) + len(dictionary.given)
    assert 0 < sum(calls.values()) <= n_parts

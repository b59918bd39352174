import pytest

from gendec.corpus import (
    PairingConfig,
    PairingMode,
    RawNamePart,
    SplitRatios,
    build_dataset,
    char_frequency,
    dedupe_first_names,
    gender_balance,
    homonym_stats,
    parse_raw_row,
    read_raw_csv,
    split_dataset,
    write_raw_csv,
)
from gendec.errors import (
    ConfigError,
    EmptyInputError,
    LabelError,
    SchemaError,
)
from gendec.name_core import Gender, NamePart, NameRole
from tests.conftest import make_raw_inventories

YUKA_A = RawNamePart("Yuka", "ゆか", "由花", Gender.FEMALE, NameRole.GIVEN)
YUKA_B = RawNamePart("Yuka", "ゆか", "悠果", Gender.FEMALE, NameRole.GIVEN)
KAZUYOSHI = RawNamePart("Kazuyoshi", "かずよし", "和善", Gender.MALE, NameRole.GIVEN)
TAMAI = RawNamePart("Tamai", "たまい", "玉井", None, NameRole.FAMILY)
IWAMA = RawNamePart("Iwama", "いわま", "岩間", None, NameRole.FAMILY)


class TestDedupe:
    def test_exact_duplicate_dropped(self):
        assert dedupe_first_names([YUKA_A, YUKA_A]) == [YUKA_A]

    def test_distinct_kanji_same_romaji_kept(self):
        assert dedupe_first_names([YUKA_A, YUKA_B]) == [YUKA_A, YUKA_B]

    def test_empty(self):
        assert dedupe_first_names([]) == []

    def test_first_occurrence_wins(self):
        other = RawNamePart("Yuka", "ゆうか", "由花", Gender.FEMALE, NameRole.GIVEN)
        assert dedupe_first_names([YUKA_A, other]) == [YUKA_A]


class TestBuildDataset:
    def test_one_to_one_sizes(self):
        records = build_dataset([YUKA_A, YUKA_B], [TAMAI], seed=1)
        assert len(records) == 2
        assert all(r.gender is Gender.FEMALE for r in records)

    def test_concatenation_convention(self):
        records = build_dataset([KAZUYOSHI], [TAMAI], seed=1)
        record = records[0]
        assert record.romaji == "Tamai Kazuyoshi"
        assert record.kanji == "玉井和善"
        assert record.hiragana == "たまいかずよし"
        assert record.gender is Gender.MALE

    def test_cross_k(self):
        firsts = [YUKA_A, YUKA_B, KAZUYOSHI]
        records = build_dataset(
            firsts, [TAMAI, IWAMA], PairingConfig(PairingMode.CROSS_K, k=2), seed=5
        )
        assert len(records) == 6
        for first in firsts:
            families = {
                r.romaji.split(" ")[0] for r in records
                if r.romaji.endswith(" " + first.romaji)
            }
            assert families == {"Tamai", "Iwama"}

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            build_dataset([], [TAMAI])
        with pytest.raises(EmptyInputError):
            build_dataset([YUKA_A], [])

    def test_one_to_one_refuses_k(self):
        with pytest.raises(ConfigError, match="k must be 1, got 5"):
            PairingConfig(PairingMode.ONE_TO_ONE, k=5)

    @pytest.mark.parametrize("mode", [mode.value for mode in PairingMode])
    def test_mode_must_be_a_pairing_mode(self, mode):
        # A plain string used to pass the one-to-one k rule, and
        # build_dataset then paired each given name with k families.
        with pytest.raises(ConfigError) as refused:
            PairingConfig(mode, k=3)
        assert str(refused.value) == f"pairing mode must be a PairingMode, got {mode!r}"

    def test_cross_k_exceeding_inventory(self):
        with pytest.raises(ConfigError):
            build_dataset([YUKA_A], [TAMAI], PairingConfig(PairingMode.CROSS_K, k=2))

    def test_deterministic(self):
        firsts, lasts = make_raw_inventories()
        a = build_dataset(firsts, lasts, seed=9)
        b = build_dataset(firsts, lasts, seed=9)
        assert a == b
        c = build_dataset(firsts, lasts, seed=10)
        assert a != c

    def test_one_to_one_preserves_gender_ratio(self):
        firsts, lasts = make_raw_inventories()
        records = build_dataset(firsts, lasts, seed=3)
        wanted = sum(1 for f in firsts if f.gender is Gender.FEMALE) / len(firsts)
        assert gender_balance(records)["female"] == pytest.approx(wanted)


class TestSplitDataset:
    def test_floor_arithmetic(self, synthetic_corpus):
        records = synthetic_corpus[:10]
        train, val, test = split_dataset(
            records, SplitRatios(0.7, 0.2, 0.1), seed=1, stratify=False
        )
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_same_seed_identical(self, synthetic_corpus):
        ratios = SplitRatios(0.7, 0.2, 0.1)
        a = split_dataset(synthetic_corpus, ratios, seed=42)
        b = split_dataset(synthetic_corpus, ratios, seed=42)
        assert a == b

    def test_different_seed_differs(self, synthetic_corpus):
        ratios = SplitRatios(0.7, 0.2, 0.1)
        a = split_dataset(synthetic_corpus, ratios, seed=42)
        b = split_dataset(synthetic_corpus, ratios, seed=43)
        assert a != b

    def test_disjoint_union(self, synthetic_corpus):
        ratios = SplitRatios(0.7, 0.2, 0.1)
        train, val, test = split_dataset(synthetic_corpus, ratios, seed=2)
        combined = train + val + test
        assert len(combined) == len(synthetic_corpus)
        assert sorted(r.romaji for r in combined) == sorted(
            r.romaji for r in synthetic_corpus
        )

    def test_stratified_balance(self, synthetic_corpus):
        # 100 records, 50/50: the train split holds 35 of each gender.
        females = [r for r in synthetic_corpus if r.gender is Gender.FEMALE][:50]
        males = [r for r in synthetic_corpus if r.gender is Gender.MALE][:50]
        train, _val, _test = split_dataset(
            females + males, SplitRatios(0.7, 0.2, 0.1), seed=1, stratify=True
        )
        assert sum(1 for r in train if r.gender is Gender.FEMALE) == 35
        assert sum(1 for r in train if r.gender is Gender.MALE) == 35

    def test_bad_ratios(self):
        with pytest.raises(ConfigError, match="ratios must sum to 1, got 1.5"):
            SplitRatios(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError, match=r"train ratio must be in \(0, 1\), got 1.0"):
            SplitRatios(1.0, 0.0, 0.0)
        with pytest.raises(ConfigError, match=r"train ratio must be in \(0, 1\), got '0.7'"):
            SplitRatios("0.7", 0.2, 0.1)

    def test_empty_records(self):
        with pytest.raises(EmptyInputError):
            split_dataset([], SplitRatios(0.7, 0.2, 0.1))


class TestHomonymStats:
    def test_reference_pairs(self, reference_records):
        hist = homonym_stats(reference_records)
        assert hist[Gender.FEMALE].get(2) == 1  # yuka: two kanji spellings
        assert hist[Gender.MALE].get(2) == 1  # kunishige: two kanji spellings

    def test_single_record(self, reference_records):
        hist = homonym_stats(reference_records[:1])
        assert hist[Gender.MALE] == {1: 1}
        assert hist[Gender.FEMALE] == {}

    def test_total_mass_is_distinct_first_names(self, fixture_records):
        hist = homonym_stats(fixture_records)
        for gender, table in hist.items():
            distinct = {
                r.romaji.split(" ")[1].lower()
                for r in fixture_records
                if r.gender is gender
            }
            assert sum(table.values()) == len(distinct)


class TestCharFrequency:
    def test_single_record(self, reference_records):
        items = char_frequency(reference_records[:1], Gender.MALE, NamePart.FIRST)
        assert items == [("和", 1), ("善", 1)]

    def test_sort_order(self, synthetic_corpus):
        items = char_frequency(synthetic_corpus, Gender.FEMALE, NamePart.FIRST)
        counts = [c for _, c in items]
        assert counts == sorted(counts, reverse=True)
        for (c1, n1), (c2, n2) in zip(items, items[1:]):
            if n1 == n2:
                assert ord(c1) < ord(c2)

    def test_counted_chars_occur_in_gender(self, fixture_records):
        for gender in (Gender.FEMALE, Gender.MALE):
            chars = {r.kanji for r in fixture_records if r.gender is gender}
            pool = set("".join(chars))
            for char, _count in char_frequency(fixture_records, gender, NamePart.FULL):
                assert char in pool

    def test_gendered_pools_separate(self, synthetic_corpus):
        female = dict(char_frequency(synthetic_corpus, Gender.FEMALE, NamePart.FIRST))
        male = dict(char_frequency(synthetic_corpus, Gender.MALE, NamePart.FIRST))
        assert "子" in female and "大" in male


class TestRawCsv:
    def test_parse_family_row_neutral(self):
        row = parse_raw_row("Tamai,たまい,玉井,neutral,family")
        assert row.gender is None and row.role is NameRole.FAMILY

    def test_parse_family_row_empty_gender(self):
        assert parse_raw_row("Tamai,たまい,玉井,,family").gender is None

    def test_given_requires_gender(self):
        with pytest.raises(LabelError):
            parse_raw_row("Yuka,ゆか,由花,,given")

    def test_family_row_takes_no_gender(self):
        """A family row with a gender would lose it on a CSV round trip, since
        the reader drops a family row's label; the constructor refuses it."""
        for gender in Gender:
            with pytest.raises(LabelError, match="family-name row 'Tamai' takes no gender"):
                RawNamePart("Tamai", "たまい", "玉井", gender, NameRole.FAMILY)
        assert parse_raw_row("Tamai,たまい,玉井,male,family") == TAMAI

    def test_bad_role(self):
        with pytest.raises(SchemaError):
            parse_raw_row("Yuka,ゆか,由花,female,middle")

    def test_file_round_trip(self, tmp_path):
        firsts, lasts = make_raw_inventories()
        path = tmp_path / "raw.csv"
        write_raw_csv(path, firsts + lasts)
        assert read_raw_csv(path) == firsts + lasts

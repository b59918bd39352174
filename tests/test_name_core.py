import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendec.errors import (
    LabelError,
    MalformedNameError,
    SchemaError,
)
from gendec.name_core import (
    Gender,
    NamePart,
    NameRecord,
    format_csv_row,
    normalize_romaji,
    parse_csv_row,
    part_text,
    read_corpus_csv,
    split_parts,
    write_corpus_csv,
)


def test_normalize_lowercases():
    assert normalize_romaji("Tamai Kazuyoshi") == "tamai kazuyoshi"


def test_normalize_empty():
    assert normalize_romaji("") == ""


def test_normalize_trims_and_collapses():
    assert normalize_romaji("  IWAMA   SATOKO ") == "iwama satoko"


@given(st.text())
def test_normalize_idempotent(text):
    once = normalize_romaji(text)
    assert normalize_romaji(once) == once


def test_gender_order():
    assert Gender.FEMALE.value < Gender.MALE.value
    assert [g.value for g in Gender] == ["female", "male"]


def test_gender_parse_rejects_unknown():
    with pytest.raises(LabelError):
        Gender.parse("unknown")


class TestSplitParts:
    def test_first(self, reference_records):
        assert split_parts(reference_records[0], NamePart.FIRST) == "kazuyoshi"

    def test_full(self, reference_records):
        assert split_parts(reference_records[0], NamePart.FULL) == "tamai kazuyoshi"

    def test_last(self, reference_records):
        assert split_parts(reference_records[1], NamePart.LAST) == "iwama"

    def test_full_is_last_plus_first(self, fixture_records):
        for record in fixture_records:
            full = split_parts(record, NamePart.FULL)
            last = split_parts(record, NamePart.LAST)
            first = split_parts(record, NamePart.FIRST)
            assert full == f"{last} {first}"


@pytest.mark.parametrize("part,expected", [
    (NamePart.LAST, "iwama"), (NamePart.FIRST, "satoko"), (NamePart.FULL, "iwama satoko"),
])
def test_part_text_normalizes(part, expected):
    assert part_text("  IWAMA   Satoko ", part) == expected


@pytest.mark.parametrize("name", ["", "   ", "Iwama", "Iwama Satoko Extra"])
def test_part_text_rejects_malformed(name):
    with pytest.raises(MalformedNameError):
        part_text(name, NamePart.FULL)


class TestNameRecordValidation:
    def test_rejects_missing_space(self):
        with pytest.raises(MalformedNameError):
            NameRecord("TamaiKazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE)

    def test_rejects_two_spaces(self):
        with pytest.raises(MalformedNameError):
            NameRecord("Tamai Kazu Yoshi", "玉井和善", "たまいかずよし", Gender.MALE)

    def test_rejects_non_ascii_romaji(self):
        with pytest.raises(MalformedNameError):
            NameRecord("Tamai Kazuyoshi2", "玉井和善", "たまいかずよし", Gender.MALE)

    def test_rejects_empty_kanji(self):
        with pytest.raises(MalformedNameError):
            NameRecord("Tamai Kazuyoshi", "", "たまいかずよし", Gender.MALE)


class TestCsvRow:
    def test_parse_reference_row(self):
        record = parse_csv_row("Tamai Kazuyoshi,玉井和善,たまいかずよし,male")
        assert record == NameRecord(
            "Tamai Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE
        )

    def test_wrong_column_count(self):
        with pytest.raises(SchemaError):
            parse_csv_row("x,y,z")

    def test_bad_label(self):
        with pytest.raises(LabelError):
            parse_csv_row("Iwama Satoko,岩間智子,いわまさとこ,unknown")

    def test_round_trip_byte_identical(self, fixture_records):
        for record in fixture_records:
            line = format_csv_row(record)
            assert format_csv_row(parse_csv_row(line)) == line

    def test_file_round_trip(self, tmp_path, fixture_records):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, fixture_records)
        assert read_corpus_csv(path) == fixture_records

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_corpus_csv(path)

    def test_read_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "romaji,kanji,hiragana,gender\nTamai Kazuyoshi,玉井和善,たまいかずよし,nope\n",
            encoding="utf-8",
        )
        with pytest.raises(LabelError, match=":2:"):
            read_corpus_csv(path)

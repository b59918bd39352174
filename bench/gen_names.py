"""Seeded synthetic raw name inventories for the benchmark.

Writes ``firsts.csv`` (given names) and ``lasts.csv`` (family names) in the
raw format ``gendec build-dataset`` reads (header
``romaji,hiragana,kanji,gender,role``).  Given-name readings are random
kana stems with gender-typed endings, plus a share of endings used by both
genders so no classifier reaches a perfect score.  Each reading gets several
kanji spellings, so romaji tokens repeat across records the way homonyms do
in real name data.  A share of family names spell a long vowel the passport
way (``かとう`` -> ``Katoh``), so the aligner cannot split those records and
skips them.

The generator is self-contained: it never imports ``gendec``, so the
program under test only ever sees the files written here.  The same
``(seed, size)`` always gives byte-identical files.

    python3 bench/gen_names.py --out DIR --seed 1 --size 800
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

RAW_HEADER = "romaji,hiragana,kanji,gender,role"

# Plain CV morae and their modified-Hepburn romaji.  Only kana whose
# romaji concatenates without context rules are used, so the romaji column
# equals the program's own transliteration of the hiragana.
_MORAE = [
    ("あ", "a"), ("い", "i"), ("う", "u"), ("え", "e"), ("お", "o"),
    ("か", "ka"), ("き", "ki"), ("く", "ku"), ("け", "ke"), ("こ", "ko"),
    ("が", "ga"), ("ぎ", "gi"), ("ぐ", "gu"), ("げ", "ge"), ("ご", "go"),
    ("さ", "sa"), ("し", "shi"), ("す", "su"), ("せ", "se"), ("そ", "so"),
    ("ざ", "za"), ("じ", "ji"), ("ず", "zu"), ("ぜ", "ze"), ("ぞ", "zo"),
    ("た", "ta"), ("ち", "chi"), ("つ", "tsu"), ("て", "te"), ("と", "to"),
    ("だ", "da"), ("で", "de"), ("ど", "do"),
    ("な", "na"), ("に", "ni"), ("ぬ", "nu"), ("ね", "ne"), ("の", "no"),
    ("は", "ha"), ("ひ", "hi"), ("ふ", "fu"), ("へ", "he"), ("ほ", "ho"),
    ("ば", "ba"), ("び", "bi"), ("ぶ", "bu"), ("べ", "be"), ("ぼ", "bo"),
    ("ま", "ma"), ("み", "mi"), ("む", "mu"), ("め", "me"), ("も", "mo"),
    ("や", "ya"), ("ゆ", "yu"), ("よ", "yo"),
    ("ら", "ra"), ("り", "ri"), ("る", "ru"), ("れ", "re"), ("ろ", "ro"),
    ("わ", "wa"),
]
_ROMAJI = dict(_MORAE)
_ROMAJI["ん"] = "n"

_FEMALE_ENDINGS = ["こ", "み", "か", "な", "え", "り", "よ", "ほ", "の", "ね", "さ", "は"]
_MALE_ENDINGS = ["お", "た", "と", "や", "し", "じ", "すけ", "ろう", "へい", "いち",
                 "ま", "ひこ", "のり", "ぞう", "へえ"]
# Endings both genders use: these keep some names genuinely ambiguous.
_SHARED_ENDINGS = ["き", "る", "ひろ", "み", "や"]
_SHARED_SHARE = 0.15

_FEMALE_KANJI = "子美奈花愛香織恵里咲菜穂乃絵佳代優彩理紀麻由沙友亜莉梨桜華瑞寧琴舞雪"
_MALE_KANJI = "大雄郎太一志斗介翔樹男彦輔哉也浩健誠隆修次吾平蔵治勇剛豪彰宏輝"
_SHARED_KANJI = "和明真光千春夏秋正信晴智裕直悠希拓康英洋朋実幸順"
_FAMILY_KANJI = ("田中山本木村井上川野原口藤佐鈴高橋渡辺伊加吉松小林清水森池"
                 "岡後長谷石前島内西北東南宮崎坂岩沢谷竹福安武永平金")

_LONG_VOWEL_SHARE = 0.3  # family names ending in -ou/-uu, when the stem allows
# Share of long-vowel family names spelled with a trailing "h".
_PASSPORT_SHARE = 0.3
_MAX_SPELLINGS = 4  # kanji spellings of one reading: 1 to this many


def _romaji(kana: str) -> str:
    return "".join(_ROMAJI[ch] for ch in kana)


def _stem(rng: random.Random, low: int, high: int) -> str:
    count = rng.randint(low, high)
    kana = [rng.choice(_MORAE)[0] for _ in range(count)]
    # An occasional syllabic n inside the stem, never first.
    if count >= 2 and rng.random() < 0.1:
        kana.insert(rng.randint(1, count - 1), "ん")
    return "".join(kana)


def _spellings(rng: random.Random, pool: str, count: int, used: set[str]) -> list[str]:
    """``count`` kanji spellings not in ``used`` (which they are added to)."""
    got: list[str] = []
    while len(got) < count:
        length = rng.choice((1, 2, 2, 2, 2, 3))
        kanji = "".join(rng.choice(pool) for _ in range(length))
        if kanji not in used:
            used.add(kanji)
            got.append(kanji)
    return sorted(got)


def _family_rows(rng: random.Random, count: int) -> list[str]:
    rows = []
    readings: set[str] = set()
    spellings: set[str] = set()
    while len(rows) < count:
        kana = _stem(rng, 2, 3)
        long_vowel = _ROMAJI[kana[-1]][-1] in "ou" and rng.random() < _LONG_VOWEL_SHARE
        if long_vowel:
            kana += "う"
        if kana in readings:
            continue
        kanji = "".join(rng.choice(_FAMILY_KANJI) for _ in range(rng.choice((2, 2, 3))))
        if kanji in spellings:
            continue
        readings.add(kana)
        spellings.add(kanji)
        romaji = _romaji(kana)
        if long_vowel and rng.random() < _PASSPORT_SHARE:
            romaji = romaji[:-1] + "h"
        rows.append(f"{romaji.title()},{kana},{kanji},neutral,family")
    return rows


def _given_rows(rng: random.Random, readings: int) -> list[str]:
    rows = []
    seen: set[tuple[str, str]] = set()
    # Spellings are unique per gender, so build-dataset's dedupe keeps every
    # row and the corpus size depends on ``readings`` alone, not on the seed.
    used = {"female": set(), "male": set()}
    for index in range(readings):
        gender = ("female", "male")[index % 2]
        while True:
            if rng.random() < _SHARED_SHARE:
                ending = rng.choice(_SHARED_ENDINGS)
            else:
                ending = rng.choice(_FEMALE_ENDINGS if gender == "female" else _MALE_ENDINGS)
            kana = _stem(rng, 1, 2) + ending
            if (kana, gender) not in seen:
                seen.add((kana, gender))
                break
        pool = (_FEMALE_KANJI if gender == "female" else _MALE_KANJI) + _SHARED_KANJI
        count = index // 2 % _MAX_SPELLINGS + 1
        for kanji in _spellings(rng, pool, count, used[gender]):
            rows.append(f"{_romaji(kana).title()},{kana},{kanji},{gender},given")
    return rows


def generate(seed: int, size: int) -> tuple[list[str], list[str]]:
    """Raw CSV data rows ``(firsts, lasts)`` for ``size`` given-name readings.

    Reading ``i`` gets ``i // 2 % 4 + 1`` spellings, so ``size`` readings
    give about ``2.5 * size`` given-name rows (exactly that when ``size`` is a
    multiple of 8) and ``max(50, size // 4)`` family names.
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    rng = random.Random(seed)
    firsts = _given_rows(rng, size)
    lasts = _family_rows(rng, max(50, size // 4))
    return firsts, lasts


def write_inventories(out_dir: Path, seed: int, size: int) -> tuple[Path, Path]:
    """Write ``firsts.csv`` and ``lasts.csv`` under ``out_dir``; return their paths."""
    firsts, lasts = generate(seed, size)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "firsts.csv", out_dir / "lasts.csv")
    for path, rows in zip(paths, (firsts, lasts)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(RAW_HEADER + "\n")
            fh.writelines(row + "\n" for row in rows)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True,
                        help="number of given-name readings")
    args = parser.parse_args()
    for path in write_inventories(args.out, args.seed, args.size):
        print(path)


if __name__ == "__main__":
    main()

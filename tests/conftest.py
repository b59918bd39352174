"""Shared fixtures: reference records, synthetic name pools, corpus factories,
and the plain-loop oracles that more than one test module checks against.

Nothing here imports scipy: a test module that compares with scipy asks for
it with ``pytest.importorskip``, so the suite also runs where it is absent.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from gendec.corpus import (
    PairingConfig,
    PairingMode,
    RawNamePart,
    build_dataset,
    dedupe_first_names,
)
from gendec.models.logistic import loss_and_gradient
from gendec.name_core import Gender, NameRecord, NameRole
from gendec.translit import kana_to_romaji

# Six hand-checked corpus rows covering the interesting cases: a male and
# a female name, two homonym pairs (same romaji, different kanji), and a
# single-kanji family name.
REFERENCE_ROWS = [
    ("Tamai Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE),
    ("Iwama Satoko", "岩間智子", "いわまさとこ", Gender.FEMALE),
    ("Shiraki Yuka", "白木由花", "しらきゆか", Gender.FEMALE),
    ("Ikeno Yuka", "池野悠果", "いけのゆか", Gender.FEMALE),
    ("Sata Kunishige", "佐田国重", "さたくにしげ", Gender.MALE),
    ("Iso Kunishige", "磯邦重", "いそくにしげ", Gender.MALE),
]


# Two records whose given kana (katakana カズ) the transducer cannot read,
# beside two it can: only the readable pair may enter a reading dictionary.
UNREADABLE_GIVEN_RECORDS = [
    NameRecord("Tamai Kazuyoshi", "玉井和善", "たまいかずよし", Gender.MALE),
    NameRecord("Iwama Tomoko", "岩間智子", "いわまともこ", Gender.FEMALE),
    NameRecord("Tamai Kazu", "玉井和", "たまいカズ", Gender.MALE),
    NameRecord("Iwama Kazu", "岩間和", "いわまカズ", Gender.FEMALE),
]


def brute_force_predict(X_train, y_train, X_test, alpha):
    """Independent log-space posterior: plain loops, no vectorization."""
    n, V = X_train.shape
    predictions = []
    priors = {}
    token_totals = {}
    for c, gender in enumerate((Gender.FEMALE, Gender.MALE)):
        rows = [i for i in range(n) if y_train[i] is gender]
        priors[c] = math.log(len(rows) / n) if rows else -math.inf
        token_totals[c] = [
            sum(X_train[i, t] for i in rows) for t in range(V)
        ]
    for i in range(X_test.shape[0]):
        scores = []
        for c in (0, 1):
            total = sum(token_totals[c]) + alpha * V
            likelihood = 0.0
            for t in range(V):
                if X_test[i, t]:
                    likelihood += X_test[i, t] * math.log(
                        (token_totals[c][t] + alpha) / total
                    )
            scores.append(likelihood + priors[c])
        predictions.append(Gender.MALE if scores[1] > scores[0] else Gender.FEMALE)
    return predictions


def finite_difference_gradient(matrix, y01, weights, bias, l2, step=1e-5):
    """Central differences over the stacked (weights, bias) vector."""
    packed = np.concatenate([weights, [bias]])

    def loss_at(vector):
        loss, _, _ = loss_and_gradient(matrix, y01, vector[:-1], vector[-1], l2)
        return loss

    grad = np.zeros_like(packed)
    for i in range(len(packed)):
        up = packed.copy()
        down = packed.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_at(up) - loss_at(down)) / (2 * step)
    return grad


# Present config values that must not fall back to the default.
def romaji_names(n: int, seed: int) -> list[str]:
    """``n`` seeded two-word romaji names of 1-4 morae a word."""
    rng = random.Random(seed)
    morae = "ka ki ku shi su ta chi to na ni no ha hi fu ma mi yu yo ri ro wa n".split()

    def word() -> str:
        return "".join(rng.choice(morae) for _ in range(rng.randint(1, 4)))

    return [f"{word()} {word()}" for _ in range(n)]


def traced_peak(call) -> int:
    """Bytes of traced memory that ``call()`` holds at its peak, over what
    was held before it, what it returns included.  Bytes are counted, not
    timed, so a bound on them does not depend on the machine."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


MALFORMED_CONFIG_VALUES = [
    pytest.param({"hyperparameters": {"nb": {"alpha": float("nan")}}}, id="nan-alpha"),
    pytest.param({"hyperparameters": {"nb": {"alpha": float("inf")}}}, id="infinite-alpha"),
    pytest.param({"hyperparameters": {"svm": {"lam": float("inf")}}}, id="infinite-lam"),
    pytest.param({"hyperparameters": {"nb": {"alpha": 10 ** 400}}}, id="huge-int-alpha"),
    *(pytest.param({key: value}, id=f"{key}-{value!r}")
      for key, values in (("hyperparameters", ([], 0, "", False, None)),
                          ("tokenizer", ([], 0, "", False, {}, None)))
      for value in values),
    pytest.param({"cells": []}, id="no-cells"),
    # Unknown keys, which a typo would otherwise turn into a silent default.
    pytest.param({"seeds": 7}, id="unknown-key-seeds"),
    pytest.param({"hyperparameter": {}}, id="unknown-key-hyperparameter"),
    pytest.param({"cells": [{"model": "nb", "features": "count", "variant": "original",
                             "part": "full", "extra": 1}]}, id="unknown-cell-key"),
    pytest.param({"tokenizer": {"mode": "word", "ngram_min": 1, "ngram_max": 1,
                                "ngram_mx": 2}}, id="unknown-tokenizer-key"),
    # Both ways of naming the cells: neither may be silently dropped.
    pytest.param({"preset": "ablation", "cells": [{"model": "nb", "features": "count",
                                                   "variant": "original", "part": "full"}]},
                 id="preset-and-cells"),
]


@pytest.fixture
def reference_records() -> list[NameRecord]:
    return [NameRecord(*row) for row in REFERENCE_ROWS]


_FAMILIES = [
    ("たなか", "田中"), ("やまもと", "山本"), ("すずき", "鈴木"), ("たかはし", "高橋"),
    ("わたなべ", "渡辺"), ("いとう", "伊藤"), ("なかむら", "中村"), ("こばやし", "小林"),
    ("かとう", "加藤"), ("よしだ", "吉田"), ("さとう", "佐藤"), ("まつもと", "松本"),
    ("いのうえ", "井上"), ("きむら", "木村"), ("はやし", "林"), ("しみず", "清水"),
    ("やまだ", "山田"), ("ささき", "佐々木"), ("やまぐち", "山口"), ("おかだ", "岡田"),
    ("ごとう", "後藤"), ("はせがわ", "長谷川"), ("むらかみ", "村上"), ("おがわ", "小川"),
]

_FEMALE_GIVEN = [
    ("さとこ", "智子"), ("ゆか", "由花"), ("みさき", "美咲"), ("ようこ", "陽子"),
    ("えみ", "恵美"), ("あい", "愛"), ("まゆみ", "真由美"), ("はなこ", "花子"),
    ("なな", "奈々"), ("みな", "美奈"), ("くみこ", "久美子"), ("ゆうこ", "裕子"),
    ("かおり", "香織"), ("ともこ", "朋子"), ("まり", "真理"), ("りえ", "理恵"),
    ("のりこ", "典子"), ("ひろみ", "裕美"), ("なおみ", "直美"), ("あやか", "彩花"),
    ("ちひろ", "千尋"), ("ほのか", "穂香"), ("まい", "舞"), ("ゆい", "結衣"),
    ("あかり", "明里"),
]

_MALE_GIVEN = [
    ("かずよし", "和善"), ("くにしげ", "国重"), ("たろう", "太郎"), ("けんいち", "健一"),
    ("しょうた", "翔太"), ("だいすけ", "大輔"), ("ゆういち", "雄一"), ("ひろし", "浩"),
    ("まこと", "誠"), ("たかし", "隆"), ("なおき", "直樹"), ("けんじ", "健二"),
    ("まなぶ", "学"), ("おさむ", "修"), ("のりお", "紀夫"), ("だいき", "大樹"),
    ("こうじ", "浩二"), ("しんご", "慎吾"), ("てつや", "哲也"), ("まさひろ", "雅大"),
    ("よしお", "義雄"), ("あきら", "明"), ("さとし", "聡"), ("りょうた", "亮太"),
    ("ゆうと", "雄斗"),
]


def _make_record(fam: tuple[str, str], giv: tuple[str, str], gender: Gender) -> NameRecord:
    fam_kana, fam_kanji = fam
    giv_kana, giv_kanji = giv
    romaji = f"{kana_to_romaji(fam_kana).title()} {kana_to_romaji(giv_kana).title()}"
    return NameRecord(
        romaji=romaji,
        kanji=f"{fam_kanji}{giv_kanji}",
        hiragana=f"{fam_kana}{giv_kana}",
        gender=gender,
    )


@pytest.fixture
def synthetic_records() -> list[NameRecord]:
    """Fifty derived records with consistent romaji/kana/kanji triples."""
    out = []
    for i, giv in enumerate(_FEMALE_GIVEN):
        out.append(_make_record(_FAMILIES[i % len(_FAMILIES)], giv, Gender.FEMALE))
    for i, giv in enumerate(_MALE_GIVEN):
        out.append(_make_record(_FAMILIES[(i + 7) % len(_FAMILIES)], giv, Gender.MALE))
    return out


@pytest.fixture
def fixture_records(reference_records, synthetic_records) -> list[NameRecord]:
    """The standard 56-record test corpus."""
    return reference_records + synthetic_records


# Kanji character pools for synthesizing homonym variants; heavy-use
# gender-typed characters come first so frequency statistics are testable.
_FEMALE_CHARS = list("子美奈花愛香織恵里咲")
_MALE_CHARS = list("大雄紀太郎一志斗介翔")


def make_raw_inventories(
    seed: int = 7,
    homonym_max: int = 8,
) -> tuple[list[RawNamePart], list[RawNamePart]]:
    """Synthetic raw name-part inventories with homonym structure.

    Each given-name reading gets a random number of distinct kanji
    spellings, so romaji tokens repeat across corpus records the way
    real name data does.
    """
    rng = np.random.default_rng(seed)

    def variants(chars: list[str], count: int) -> list[str]:
        got: set[str] = set()
        while len(got) < count:
            got.add("".join(rng.choice(chars, size=2)))
        return sorted(got)

    firsts = []
    for kana, _kanji in _FEMALE_GIVEN:
        for variant in variants(_FEMALE_CHARS, int(rng.integers(1, homonym_max + 1))):
            firsts.append(
                RawNamePart(kana_to_romaji(kana).title(), kana, variant,
                            Gender.FEMALE, NameRole.GIVEN)
            )
    for kana, _kanji in _MALE_GIVEN:
        for variant in variants(_MALE_CHARS, int(rng.integers(1, homonym_max + 1))):
            firsts.append(
                RawNamePart(kana_to_romaji(kana).title(), kana, variant,
                            Gender.MALE, NameRole.GIVEN)
            )
    lasts = [
        RawNamePart(kana_to_romaji(kana).title(), kana, kanji, None, NameRole.FAMILY)
        for kana, kanji in _FAMILIES
    ]
    return dedupe_first_names(firsts), lasts


@pytest.fixture(scope="session")
def synthetic_corpus() -> list[NameRecord]:
    """A ~1100-record corpus with homonym structure for pipeline tests."""
    firsts, lasts = make_raw_inventories()
    return build_dataset(
        firsts, lasts, PairingConfig(PairingMode.CROSS_K, k=8), seed=11
    )

"""Versioned single-file JSON persistence for trained models.

A model file is self-contained: it embeds the vocabulary, the tokenizer
config, the grid cell it was trained for, and (for converted-variant
models) the reading dictionary, so prediction needs no side files.
Serialization is byte-reproducible: keys are sorted, floats use
Python's shortest round-trip repr, and the created-at stamp defaults to
a fixed epoch unless SOURCE_DATE_EPOCH is set.  A file stores nothing
that follows from the rest of it or that prediction never reads
(schema_version 4): a tree, its nodes in pre-order, is its split columns,
split thresholds and leaf counts, and the loader rebuilds its child links
and inner-node counts, a forest's tree count and a naive-Bayes model's
single-class flag; the reading dictionary keeps one count and one romaji
per kanji part.  A file of another schema_version, such as a version 3
file that still stores every tree node's left child and counts, must be
retrained.  A malformed file
raises SchemaError naming the failed check's type: ConfigError for a
missing or unknown key or a value off its rule, ValueError for a bad
shape or an array item of the wrong JSON type.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, SchemaError
from .evaluate import Cell
from .models import MODEL_KINDS, ModelKind, TrainedModel, kind_of
from .models.common import vector
from .name_core import InputVariant, NamePart, check_keys, read_json, write_json
from .translit import ReadingDictionary
from .vectorize import TokenizerConfig, Vocabulary, Weighting

SCHEMA_VERSION = 4


def deterministic_created_at() -> str:
    """ISO-8601 stamp from SOURCE_DATE_EPOCH, else a fixed epoch.

    A wall-clock default would break the guarantee that retraining with
    the same inputs and seed yields a byte-identical model file.  A value
    that is not an integer number of seconds (negative ones included) a
    date can hold raises ConfigError.
    """
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        stamp = datetime.fromtimestamp(int(raw), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ConfigError("SOURCE_DATE_EPOCH must be an integer number of seconds "
                          f"within the years 1 to 9999, got {raw!r}") from None
    return stamp.replace(tzinfo=None).isoformat() + "Z"  # 4-digit year, unlike %Y


@dataclass
class ModelFile:
    """In-memory form of a persisted model plus everything predict needs."""

    model: TrainedModel
    weighting: Weighting
    part: NamePart
    variant: InputVariant
    vocabulary: Vocabulary
    reading_dictionary: Optional[ReadingDictionary]
    metadata: dict
    cell: Cell = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Cell refuses a weighting, variant or part that is not its enum's member.
        self.cell = Cell(kind_of(self.model), self.weighting, self.variant, self.part)

    @property
    def kind(self) -> ModelKind:
        return self.cell.model

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model_kind": self.kind.value,
            "weighting": self.weighting.value,
            "part": self.part.value,
            "variant": self.variant.value,
            "tokenizer": self.vocabulary.tokenizer.to_json_dict(),
            "vocabulary": {
                "tokens": list(self.vocabulary.tokens),
                "idf": None if self.vocabulary.idf is None
                else self.vocabulary.idf.tolist(),
            },
            "parameters": MODEL_KINDS[self.kind].to_params(self.model),
            "reading_dictionary": None if self.reading_dictionary is None
            else self.reading_dictionary.to_json_dict(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelFile":
        """Model file from its JSON document; a malformed one raises SchemaError."""
        if isinstance(doc, dict):
            version = doc.get("schema_version")
            if type(version) is not int or version != SCHEMA_VERSION:  # 4.0 is not 4
                raise SchemaError(f"malformed model file: schema_version must be "
                                  f"{SCHEMA_VERSION}, got {version!r}; retrain the model")
        try:
            check_keys(doc, ("schema_version", "model_kind", "weighting", "part", "variant",
                             "tokenizer", "vocabulary", "parameters", "reading_dictionary",
                             "metadata"))
            if not isinstance(doc["metadata"], dict):
                raise ValueError("metadata must be a JSON object")
            check_keys(doc["vocabulary"], ("tokens", "idf"))
            tokens, idf = doc["vocabulary"]["tokens"], doc["vocabulary"]["idf"]
            if not isinstance(tokens, list):  # tuple() would split a string or a dict
                raise ConfigError("vocabulary tokens must be distinct strings in "
                                  "ascending order")
            idf = None if idf is None else vector(idf, np.float64, "idf",
                                                  (len(tokens), "vocabulary token"))
            vocabulary = Vocabulary(
                tokens=tuple(tokens),
                tokenizer=TokenizerConfig.from_json_dict(doc["tokenizer"]),
                idf=idf,
            )
            weighting = Weighting(doc["weighting"])
            if weighting is Weighting.TFIDF and idf is None:
                raise ValueError("a tfidf model file's vocabulary must carry idf weights")
            kind = ModelKind(doc["model_kind"])
            reading = doc["reading_dictionary"]
            return cls(
                model=MODEL_KINDS[kind].from_params(doc["parameters"], len(tokens)),
                weighting=weighting,
                part=NamePart(doc["part"]),
                variant=InputVariant(doc["variant"]),
                vocabulary=vocabulary,
                reading_dictionary=None if reading is None
                else ReadingDictionary.from_json_dict(reading),
                metadata=doc["metadata"],
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError,
                OverflowError, ConfigError) as exc:
            raise SchemaError(f"malformed model file: {type(exc).__name__}: {exc}") from None
        except SchemaError as exc:  # from the reading dictionary
            raise SchemaError(f"malformed model file: {exc}") from None


def save_model(path: str | Path, model_file: ModelFile) -> None:
    write_json(path, model_file.to_json_dict(), sort_keys=True, separators=(",", ":"))


def load_model(path: str | Path) -> ModelFile:
    """The model file at ``path``.  A file that is not one (not UTF-8, not
    JSON, an object that repeats a key, or a malformed document) raises a
    SchemaError that starts with ``malformed model file:``."""
    try:
        doc = read_json(path)
    except SchemaError as exc:
        raise SchemaError(f"malformed model file: {exc}") from None
    return ModelFile.from_json_dict(doc)

"""Versioned single-file JSON persistence for trained models.

A model file is self-contained: it embeds the vocabulary, the tokenizer
config, the grid cell it was trained for, and (for converted-variant
models) the reading dictionary, so prediction needs no side files.
Serialization is byte-reproducible: keys are sorted, floats use
Python's shortest round-trip repr, and the created-at stamp defaults to
a fixed epoch unless SOURCE_DATE_EPOCH is set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import SchemaError
from .evaluate import Cell
from .models import MODEL_KINDS, ModelKind, TrainedModel, kind_of
from .models.common import vector
from .name_core import InputVariant, NamePart
from .translit import ReadingDictionary
from .vectorize import TokenizerConfig, Vocabulary, Weighting

SCHEMA_VERSION = 1


def deterministic_created_at() -> str:
    """ISO-8601 stamp from SOURCE_DATE_EPOCH, else a fixed epoch.

    A wall-clock default would break the guarantee that retraining with
    the same inputs and seed yields a byte-identical model file.
    """
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class ModelFile:
    """In-memory form of a persisted model plus everything predict needs."""

    model: TrainedModel
    kind: ModelKind
    weighting: Weighting
    part: NamePart
    variant: InputVariant
    vocabulary: Vocabulary
    reading_dictionary: Optional[ReadingDictionary]
    metadata: dict

    def to_json_dict(self) -> dict:
        kind = kind_of(self.model)
        return {
            "schema_version": SCHEMA_VERSION,
            "model_kind": kind.value,
            "weighting": self.weighting.value,
            "part": self.part.value,
            "variant": self.variant.value,
            "tokenizer": self.vocabulary.tokenizer.to_json_dict(),
            "vocabulary": {
                "tokens": list(self.vocabulary.tokens),
                "idf": None if self.vocabulary.idf is None
                else self.vocabulary.idf.tolist(),
            },
            "parameters": MODEL_KINDS[kind].to_params(self.model),
            "reading_dictionary": None if self.reading_dictionary is None
            else self.reading_dictionary.to_json_dict(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelFile":
        """Model file from its JSON document; a malformed one raises SchemaError."""
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported model file schema_version {version!r}")
        try:
            tokens = tuple(doc["vocabulary"]["tokens"])
            idf_doc = doc["vocabulary"]["idf"]
            vocabulary = Vocabulary(
                tokens=tokens,
                token_to_index={tok: i for i, tok in enumerate(tokens)},
                tokenizer=TokenizerConfig.from_json_dict(doc["tokenizer"]),
                idf=None if idf_doc is None else vector(idf_doc, np.float64, len(tokens)),
            )
            kind = ModelKind(doc["model_kind"])
            reading = doc.get("reading_dictionary")
            return cls(
                model=MODEL_KINDS[kind].from_params(doc["parameters"], len(tokens)),
                kind=kind,
                weighting=Weighting(doc["weighting"]),
                part=NamePart(doc["part"]),
                variant=InputVariant(doc["variant"]),
                vocabulary=vocabulary,
                reading_dictionary=None if reading is None
                else ReadingDictionary.from_json_dict(reading),
                metadata=dict(doc["metadata"]),
            )
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(f"malformed model file: {type(exc).__name__}: {exc}") from None

    @property
    def cell(self) -> Cell:
        return Cell(
            model=self.kind,
            weighting=self.weighting,
            variant=self.variant,
            part=self.part,
        )


def save_model(path: str | Path, model_file: ModelFile) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_file.to_json_dict(), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


def load_model(path: str | Path) -> ModelFile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise SchemaError(f"{path}: not a JSON model file: {exc}") from None
    return ModelFile.from_json_dict(doc)

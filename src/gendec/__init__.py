"""Gender detection from Japanese personal names.

End-to-end pipeline: build a gender-labeled full-name corpus from raw
name-part inventories, transliterate kana/kanji to romaji, featurize
with count or TF-IDF weighting, train five classical classifiers, and
evaluate macro F1 over a grid of input variants and name parts.
"""

from .corpus import (
    HomonymHistogram,
    PairingConfig,
    PairingMode,
    RawNamePart,
    SplitRatios,
    build_dataset,
    char_frequency,
    dedupe_first_names,
    gender_balance,
    homonym_stats,
    split_dataset,
)
from .errors import GendecError
from .evaluate import (
    Cell,
    CellResult,
    ConfusionMatrix,
    EvalReport,
    ExperimentGrid,
    ablation_grid,
    accuracy,
    classical_full_grid,
    confusion,
    f1_scores,
    run_cells,
    run_experiment,
)
from .model_io import ModelFile, load_model, save_model
from .models import (
    ForestModel,
    LRModel,
    ModelKind,
    NBModel,
    SVMModel,
    TrainedModel,
    TreeModel,
    predict,
    predict_proba,
    train_forest,
    train_logistic,
    train_naive_bayes,
    train_svm,
    train_tree,
)
from .name_core import (
    Gender,
    InputVariant,
    NamePart,
    NameRecord,
    NameRole,
    normalize_romaji,
    parse_csv_row,
    part_text,
    read_corpus_csv,
    write_corpus_csv,
)
from .translit import (
    ReadingDictionary,
    build_reading_dictionary,
    convert_name,
    kana_consistency_rate,
    kana_to_romaji,
)
from .vectorize import (
    FeatureMatrix,
    TokenizerConfig,
    TokenizerMode,
    Vocabulary,
    Weighting,
    fit_vocabulary,
    transform,
)

__version__ = "0.1.0"

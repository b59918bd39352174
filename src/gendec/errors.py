"""Exception and warning types shared across the package."""


class GendecError(Exception):
    """Base class for all errors raised by this package."""


class MalformedNameError(GendecError):
    """A romaji full name does not have the 'Family Given' shape."""


class SchemaError(GendecError):
    """A CSV row, file header, or serialized document does not match its schema."""


class LabelError(GendecError):
    """A gender label is outside the accepted set."""


class UnknownKanaError(GendecError):
    """A character outside the kana rule table was passed to the transliterator."""


class EmptyInputError(GendecError):
    """An operation that requires at least one element received none, such as
    an empty document list."""


class NonFiniteError(GendecError):
    """Training produced a NaN or infinite loss or weight (divergence)."""


class DimensionMismatchError(GendecError):
    """A feature matrix column count does not match the model it is fed to."""


class SparseFormatError(GendecError):
    """A feature matrix is not in compressed sparse row (CSR) form."""


class UnsupportedModelError(GendecError):
    """The model kind does not support the requested operation."""


class LengthMismatchError(GendecError):
    """Two label sequences that must align have different lengths."""


class ConfigError(GendecError):
    """An invalid pairing, grid, hyperparameter or split-ratio configuration,
    or inputs that do not go together (a vocabulary without idf asked for
    TF-IDF, converted romaji without a reading dictionary)."""


class TransliterationWarning(UserWarning):
    """Degenerate kana handled by a documented fallback (e.g. trailing sokuon)."""


class SingleClassWarning(UserWarning):
    """A classifier was trained on labels containing a single class."""

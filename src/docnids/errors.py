"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: DataError -> 3,
ModelFormatError / SchemaMismatchError -> 4, TrainingDivergedError -> 2
(the flags, such as --lr, made training diverge).
"""


class DataError(ValueError):
    """Unusable input data: not UTF-8, unreadable CSV, bad rows or columns."""


class ModelFormatError(ValueError):
    """Model file is corrupt, truncated, or of an unsupported version."""


class SchemaMismatchError(ModelFormatError):
    """Model was trained on a different feature schema than supplied."""


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite during training."""

"""Exception types shared across the package."""


class LeafnetError(Exception):
    """Base class for all leafnet errors."""


class ShapeError(LeafnetError):
    """Array shapes incompatible with an operation."""


class NumericError(LeafnetError):
    """Non-finite values where finite ones are required."""


class ConfigError(LeafnetError):
    """Invalid model or training configuration."""


class DatasetError(LeafnetError):
    """Dataset directory structure or content problems."""


class DecodeError(LeafnetError):
    """Image file could not be decoded."""


class ModelFormatError(LeafnetError):
    """Model file is corrupt or has an unsupported format."""


class ModelStateError(LeafnetError):
    """Model is missing state required for the requested operation."""


class TrainingDiverged(NumericError):
    """Training hit non-finite values; carries the epoch and the batch index,
    which is None when the epoch's validation found them."""

    def __init__(self, epoch: int, batch: int | None, detail: str):
        self.epoch = epoch
        self.batch = batch
        where = f"epoch {epoch}" if batch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"{detail} at {where}")

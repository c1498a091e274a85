"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, TrainingDivergedError -> 3; an interrupt (SIGINT) exits 130.
"""


class ConfigError(Exception):
    """Bad usage or configuration: unknown keys, unresolvable paths, bad flag values."""


class DataError(Exception):
    """Malformed or invalid input data (files, records, labels, shapes)."""


class DegenerateSignalError(DataError):
    """Signal cannot support an AR fit (constant input or annihilated prediction errors)."""


class TrainingDivergedError(Exception):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        detail = message or "loss became non-finite"
        super().__init__(f"training diverged at epoch {epoch}: {detail}")

"""Exception types shared across the package.

Everything user-facing derives from :class:`FusetrackError`. Errors caused by
bad inputs or configuration additionally derive from :class:`ValidationError`
(and ``ValueError``), which the CLI maps to exit status 2; anything else maps
to exit status 1.
"""


class FusetrackError(Exception):
    """Base class for all errors raised by fusetrack."""


class ValidationError(FusetrackError, ValueError):
    """Invalid input data, arguments, or configuration."""


class LogParseError(ValidationError):
    """Malformed logfile content; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyInputError(ValidationError):
    """No usable records in the input."""


class MissingChannelError(ValidationError):
    """A required sensor channel is absent from the stream."""


class AlignmentError(ValidationError):
    """Channels cannot be aligned onto a common clock."""


class RangeError(ValidationError):
    """Requested bounds fall outside the available data."""


class OrderingError(ValidationError):
    """A sequence that must be strictly increasing in time is not."""


class ShapeError(ValidationError):
    """Tensor shape does not match what a layer or loss expects."""


class ConfigError(ValidationError):
    """Invalid model or pipeline configuration."""


class EmptyBatchError(ValidationError):
    """A loss was evaluated on an empty batch."""


class InsufficientDataError(ValidationError):
    """Not enough labeled data for the requested prediction."""


class DictionaryError(ValidationError):
    """Access-point dictionary does not match the trained model."""


class EmptyMapError(ValidationError):
    """Radiomap construction received zero scans."""


class CannotInitializeError(ValidationError):
    """Track fusion has no absolute position to start from."""


class IndexEmptyError(ValidationError):
    """Projection index contains no reference points."""


class CoverageError(ValidationError):
    """Ground-truth timestamps fall outside the predicted track span."""

    def __init__(self, message: str, timestamps=None):
        super().__init__(message)
        self.timestamps = list(timestamps or [])


class DivergenceError(FusetrackError):
    """Training produced a non-finite loss or gradient."""


class CacheError(FusetrackError):
    """A cached artifact (window file, checkpoint) is stale or corrupt."""


class PipelineError(FusetrackError):
    """A pipeline stage failed; names the stage and keeps the cause.

    The CLI exits 2 for it when the cause is a :class:`ValidationError` or an
    ``OSError``, since the input was at fault, and 1 otherwise.
    """

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

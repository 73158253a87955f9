"""Exception types shared across the toolkit, and its one count check.

A bad input raises a :class:`VqaError` subclass, once, where it enters (a
value object checks itself when made); InvalidParameter, NumericalError and
MalformedTable are ValueError too. Only programmer errors raise built-ins:
parallel_map called in a task (RuntimeError), save_model given no model
(TypeError), and the CLI's argparse.ArgumentTypeError and SystemExit.
"""

from __future__ import annotations

from numbers import Integral


class VqaError(Exception):
    """Base class for all toolkit errors."""


# --- clip ingestion ---------------------------------------------------------

class ParseError(VqaError):
    def __init__(self, position: int, token: str):
        self.position = position
        self.token = token
        super().__init__(f"malformed input at byte {position}: {token!r}")


class TruncatedFrame(VqaError):
    def __init__(self, index: int, name: str | None = None):
        self.index = index
        super().__init__(f"{name + ': ' if name else ''}truncated payload for frame {index}")


class Unsupported(VqaError):
    def __init__(self, tag: str):
        self.tag = tag
        super().__init__(f"unsupported colorspace tag {tag!r}")


class DimensionMismatch(VqaError):
    pass


class EmptyInput(VqaError):
    pass


# --- sampling ---------------------------------------------------------------

class InsufficientFrames(VqaError):
    pass


class SourceTooSmall(VqaError):
    pass


# --- features ---------------------------------------------------------------

class PlaneTooSmall(VqaError):
    pass


# --- regressors -------------------------------------------------------------

class NoTrainablePairs(VqaError):
    pass


class NumericalError(VqaError, ValueError):
    """A nan or infinite value where a finite number is needed."""


class InvalidParameter(VqaError, ValueError):
    """A parameter outside the values its function can use."""

    def __init__(self, name: str, value, need: str):
        self.name = name
        self.value = value
        super().__init__(f"{name}={value!r}: need {need}")


def check_count(name: str, value, least: int = 1):
    """``value``, an integer (Python or numpy, not a bool) >= ``least``, or InvalidParameter."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidParameter(name, value, f"an integer >= {least}")
    return value


class CheckpointError(VqaError):
    pass


# --- scoring ----------------------------------------------------------------

class OutOfRange(VqaError):
    pass


class DegenerateScores(VqaError):
    def __init__(self, model: int | str):
        self.model = model
        super().__init__(f"score list {model!r} has zero variance; cannot z-score")


# --- evaluation -------------------------------------------------------------

class UndefinedCorrelation(VqaError):
    pass


class JoinError(VqaError):
    def __init__(self, clip_id: str):
        self.clip_id = clip_id
        super().__init__(f"no matching row for clip_id {clip_id!r}")


class MalformedTable(VqaError, ValueError):
    """A CSV table whose header, row width or cell cannot be read."""


class DuplicateId(VqaError):
    """A clip id given twice: ``where`` and ``first`` name the two places."""

    def __init__(self, clip_id: str, where: str, first: str):
        self.clip_id = clip_id
        super().__init__(f"{where} repeats clip id {clip_id!r} of {first}")


# --- benchmarking -----------------------------------------------------------

class SpecMismatch(VqaError):
    pass


class BenchRunError(VqaError):
    def __init__(self, run_index: int, cause: BaseException):
        self.run_index = run_index
        super().__init__(f"pipeline failed on run {run_index}: {cause}")

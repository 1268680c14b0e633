"""Exception types shared across the package."""


class FinedropError(Exception):
    """Base class for all package errors."""


class ShapeError(FinedropError, ValueError):
    """Operands have incompatible shapes. Messages name both shapes."""


class ValidationError(FinedropError, ValueError):
    """An argument violates a documented precondition."""


class UsageError(FinedropError, RuntimeError):
    """An API was called out of protocol (e.g. backward without grad reset)."""


class FormatError(FinedropError, ValueError):
    """A file on disk does not match its documented byte layout.

    Carries ``offset``, the byte position at which decoding failed, when known.
    """

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class CapacityError(FinedropError, ValueError):
    """A brute-force oracle was asked to enumerate beyond its documented limit."""


class RunError(FinedropError, RuntimeError):
    """A run failed: a training run (e.g. the loss became non-finite), or a
    worker process of a sweep or save pool.

    Carries ``iteration``, the step index at which a training failure was detected.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message if iteration is None else f"{message} (iteration {iteration})")
        self.iteration = iteration

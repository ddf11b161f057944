"""Exception types shared across the package.

``cli.main`` maps these onto exit codes: DataError and its subclasses -> 3,
ConfigError and every other WsodkitError -> 2. The others are ShapeError,
OptimizerError and the bare WsodkitError that a projection of near-zero
norm raises. Any other exception is a programming error and propagates.
"""


class WsodkitError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(WsodkitError):
    """Invalid run configuration or command-line usage."""


class DataError(WsodkitError):
    """Invalid or unreadable input data."""


class ParseError(DataError):
    """A file could not be parsed; the message names the offending line."""


class ValidationError(DataError):
    """A record violates a schema invariant; the message names the field."""


class DegenerateRegionError(DataError):
    """A box covers no pixel centers of the grid it was pooled over."""


class CheckpointError(DataError):
    """A checkpoint is malformed or incompatible with the model at hand."""


class ShapeError(WsodkitError):
    """Operands with non-conforming shapes."""


class OptimizerError(WsodkitError):
    """Optimizer invariant broken, e.g. a non-finite gradient."""

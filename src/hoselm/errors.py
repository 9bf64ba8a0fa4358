"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent with each other or with a model."""


class DegenerateNodeError(RuntimeError):
    """A classifier node produced an all-constant (zero-norm) activation.

    Callers skip the node; fitting a deterministic layer again on the same
    residual would reproduce it, so greedy fitting stops here.
    """


class ModeError(RuntimeError):
    """Operation requires a model trained in the other mode."""


class ParseError(ValueError):
    """A dataset cell could not be read as a number; names the row/column."""


class FormatError(ValueError):
    """A dataset or model file is structurally malformed.

    Datasets: ragged or empty rows.  Model files: a missing or unreadable
    header or array, or an array whose shape, node or group count, dtype or
    finiteness disagrees with the header.
    """

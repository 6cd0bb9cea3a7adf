"""Exception types shared across the package."""


class SpectralCFError(Exception):
    """Base class for all package errors."""


class ParseError(SpectralCFError, ValueError):
    """Malformed input line; carries the 1-based line number, what is wrong
    with it and, when known, the file it is in."""

    def __init__(self, line_no, reason, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyDatasetError(SpectralCFError, ValueError):
    """No interactions survive filtering or protocol exclusions."""


class DimensionError(SpectralCFError, ValueError):
    """Shape or index mismatch between arguments."""


class NumericError(SpectralCFError, RuntimeError):
    """Non-finite values or failed numeric tolerance."""


class DegenerateInterpolationError(SpectralCFError, ValueError):
    """Repeated eigenvalues demand conflicting filter targets."""


class SplitFormatError(SpectralCFError, ValueError):
    """A persisted split whose files miss a field or disagree with each other,
    or a split that its files could not hold."""

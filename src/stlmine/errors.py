"""Exception types shared across the package."""


class StlmineError(Exception):
    """Base class for all errors raised by stlmine."""


class FormulaSyntaxError(StlmineError):
    """Formula text failed to parse. Carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class FormulaStructureError(StlmineError):
    """A structurally invalid formula: shared parameter ids, bad interval, free params
    where a concrete formula is required, and so on."""


class DataFormatError(StlmineError):
    """Malformed trace CSV, label manifest, or inconsistent dataset."""


class UnknownSignalError(StlmineError):
    """A formula references a signal the trace does not carry."""


class TraceDomainError(StlmineError):
    """Evaluation time outside the trace's time domain."""


class InstantiationError(StlmineError):
    """Parameter substitution failed: missing value or ill-formed resulting interval."""


class DegenerateBoundsError(StlmineError):
    """A parameter box could not be built (empty dataset, zero-duration traces, ...)."""


class SearchLimitError(StlmineError):
    """The boundary search passed its hard cap on processed boxes."""

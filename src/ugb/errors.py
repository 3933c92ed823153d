"""Exception types shared across the engine."""


class UGBError(Exception):
    """Base class for every error raised by this package."""


class AlgebraMismatch(UGBError):
    """Operands live in algebras with different rings, alphabets or
    oracles."""


class BasisViolation(UGBError):
    """A word is not a basis word of the active multiplication oracle."""


class ZeroPolynomial(UGBError):
    pass


class NotUnital(UGBError):
    """A generating set has a leading coefficient that is not a unit."""


class BudgetExceeded(UGBError):
    """Division ran past its defensive step budget."""


class EngineInvariantBroken(UGBError):
    """A leading term failed to cancel or to decrease, or a membership
    witness failed to expand to its query; a real exception, not an
    assert, so the soundness check still runs under ``python -O``."""


class NotAGroebnerBasis(UGBError):
    """A strict-mode operation requires a verified Groebner basis."""


class CompletionFailure(UGBError):
    """Completion could not reach a Groebner basis."""


class NonUnitalRemainder(CompletionFailure):
    """A failing s-polynomial reduced to a remainder whose leading
    coefficient is not a unit; adjoining it is unsupported, so the
    condition is surfaced instead of silently inverted."""


class RoundsExceeded(CompletionFailure):
    pass


class BoundTooSmall(UGBError):
    pass


class ParseError(UGBError):
    """Problem-file or polynomial text could not be parsed."""

    def __init__(self, message, filename=None, line=None):
        self.filename = filename
        self.line = line
        prefix = "".join(f"{part}:" for part in (filename, line) if part is not None)
        super().__init__(f"{prefix} {message}" if prefix else message)

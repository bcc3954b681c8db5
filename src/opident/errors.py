"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Ill-formed inputs: mismatched jets, empty factor lists, bad ranges."""


class EvalDomainError(ValueError):
    """Evaluation where a function or operation is undefined: ln of a
    value <= 0, division by zero, or a kink (abs, fractional powers at 0)."""


class NumericRangeError(ArithmeticError):
    """A computation left the finite double range (overflow, NaN)."""


class RecoveryError(RuntimeError):
    """Coefficient recovery failed (singular or ill-conditioned probe system)."""


class ParseError(ValueError):
    """Syntax error in the expression DSL, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset

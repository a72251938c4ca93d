"""Shared exception types."""


class SymcircError(Exception):
    pass


class FieldMismatchError(SymcircError):
    """Raised when values from different fields are combined."""


class CircuitError(SymcircError):
    """Structural problem in a circuit (cycle, bad label, missing gate)."""


class SchemaError(SymcircError):
    """Malformed JSON input; the message carries the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class BudgetExceededError(SymcircError):
    """An enumeration overran its fixed budget."""

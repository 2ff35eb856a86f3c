"""Exception types shared across the package."""


class SpecError(ValueError):
    """A group spec string or structure is malformed.

    ``position`` is the character offset in the input text when the error
    came from the parser, otherwise None.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CapExceeded(RuntimeError):
    """A group has more elements than the configured element cap."""

    def __init__(self, cap, reached):
        super().__init__(f"element cap {cap} exceeded ({reached} elements reached)")
        self.cap = cap
        self.reached = reached


class BudgetExceeded(RuntimeError):
    """A time or size budget ran out; carries partial progress."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

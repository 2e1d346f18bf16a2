"""Exception types shared across the simulator."""


class BbandSimError(Exception):
    """Base class for all simulator errors."""


class ValidationError(BbandSimError):
    """An input violates a documented precondition or schema rule: ``args`` holds one message per broken rule."""

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class MissingDataError(ValidationError):
    """A required input is absent entirely."""


class InputValidationError(ValidationError):
    """Aggregate of every diagnostic found while loading an input bundle.

    Loading is collect-all rather than fail-fast, so ``diagnostics`` holds
    one entry per problem, each with file/line context.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        head = "; ".join(str(d) for d in self.diagnostics[:5])
        extra = len(self.diagnostics) - 5
        if extra > 0:
            head += f" (+{extra} more)"
        super().__init__(f"{len(self.diagnostics)} validation problem(s): {head}")

"""Exception types shared across the package.

Three families matter to callers: parse failures (unreadable input, a
field of the wrong JSON type), mathematical precondition failures (bad
input data, solvability violations) and capacity overflows (formal-degree
caps, Laurent-window truncation). The CLI maps them to
distinct exit codes.
"""


class PreconditionError(ValueError):
    """A mathematical precondition on the input data is violated."""


class ParseError(ValueError):
    """Input is not valid JSON, or a field has the wrong JSON type."""


class PrecisionOverflow(ArithmeticError):
    """Base class for capacity overflows; always carries enough context
    to see what overflowed."""


class LambdaDegreeOverflow(PrecisionOverflow):
    """Polynomial degree in the branch parameter exceeded the configured cap."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(
            f"branch-parameter degree {degree} exceeds the configured cap {cap}"
        )


class LogDegreeOverflow(PrecisionOverflow):
    """log(z)-degree of a Laurent term exceeded the configured cap."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"log-degree {degree} exceeds the configured cap {cap}")


class WindowTruncation(PrecisionOverflow):
    """An operation cannot vouch for its result because input series were
    already truncated at the Laurent window."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)

"""Exception types shared across the package.

Three families matter to callers: parse failures (unreadable input, a
value of the wrong JSON type or shape), mathematical precondition failures
(bad input data, solvability violations) and capacity overflows
(formal-degree caps, Laurent-window truncation). The CLI maps them to
distinct exit codes. The first two share `InputError`, whose message names
the JSON path of the offending value when there is one.
"""


class InputError(ValueError):
    """Base of the two input failures. `path` locates the offending value
    inside a JSON document (keys and list indices, outermost first); it is
    empty when the failure is not tied to one value."""

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if not self.path:
            return self.message
        *owner, last = self.path
        where = "".join(f"[{s}]" if type(s) is int else f".{s}" for s in owner).removeprefix(".")
        if type(last) is not int:
            return f"field {last!r}{' of ' + where if where else ''}: {self.message}"
        return f"{where}[{last}]: {self.message}"


class PreconditionError(InputError):
    """A mathematical precondition on the input data is violated."""


class ParseError(InputError):
    """Input is not valid JSON, or a value has the wrong JSON type or shape."""


class PrecisionOverflow(ArithmeticError):
    """Base class for capacity overflows; always carries enough context
    to see what overflowed."""


class _DegreeOverflow(PrecisionOverflow):
    """A formal degree exceeded its cap; each subclass names the degree in
    `what`. Both caps are module constants, and the message keeps the words
    "configured cap" because error objects carry it to stdout."""

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"{self.what} {degree} exceeds the configured cap {cap}")


class LambdaDegreeOverflow(_DegreeOverflow):
    """Polynomial degree in the branch parameter exceeded `padic.LAMBDA_CAP`."""

    what = "branch-parameter degree"


class LogDegreeOverflow(_DegreeOverflow):
    """log(z)-degree of a Laurent term exceeded `loglaurent.LOG_CAP`."""

    what = "log-degree"


class WindowTruncation(PrecisionOverflow):
    """An operation cannot vouch for its result because input series were
    already truncated at the Laurent window."""

"""Shared JSON helpers: exact rationals as "n/d" strings, integers that
arrive as JSON integers or integer strings. A JSON float is never read as
an exact number."""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, PreconditionError


def frac_to_str(v) -> str:
    return str(Fraction(v))


def frac_from_str(s) -> Fraction:
    """A rational from a string such as "-3/4" or a JSON integer."""
    if not (isinstance(s, str) or type(s) is int):
        raise ParseError(f"a rational must be a string or an integer, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational number: {s!r}") from exc


def int_from_json(value, field: str) -> int:
    """An integer field: a JSON integer (not a boolean) or an integer string."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        digits = value[1:] if value.startswith(("+", "-")) else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ParseError(f"field {field!r} must be an integer or an integer string, got {value!r}")

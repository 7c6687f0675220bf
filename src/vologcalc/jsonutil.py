"""Shared JSON helpers: exact rationals as "n/d" strings."""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError


def frac_to_str(v) -> str:
    return str(Fraction(v))


def frac_from_str(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational number: {s!r}") from exc

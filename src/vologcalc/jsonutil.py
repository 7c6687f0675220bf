"""The one place where a JSON value becomes an exact value.

Input contract: an integer is a JSON integer or an integer string such as
"-12"; a rational is a string "n" or "n/d", or a JSON integer; an identifier
(vertex, edge or point label) is a JSON string or integer; a float or a
boolean is never a number. A wrong JSON type, a list of the wrong length or a
missing key raises ParseError, and a well-typed value out of range raises
PreconditionError. Library constructors read their numbers under the same
contract, rationals through `to_fraction` (which also takes a Fraction) and
integers through `int_from_json`. Decoders compose the readers below;
`member`, `items` and `entries` add their key or index to the path of an
error raised inside them, so every message names the JSON path
(``field 'unit' of edges[0].raw_c``) and a path costs nothing until
something fails.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError, ParseError, PreconditionError

_REQUIRED = object()
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _expected(what: str, value) -> ParseError:
    text = repr(value)
    return ParseError(f"expected {what}, got {text if len(text) <= 40 else text[:37] + '...'}")


def frac_to_str(v) -> str:
    return str(Fraction(v))


def member(obj, key: str, read=None, *args, default=_REQUIRED):
    """obj[key] read by `read(value, *args)`; `default` if the key is absent."""
    if type(obj) is not dict:
        raise _expected("an object", obj)
    value = obj.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ParseError("missing", (key,))
        return default
    if read is None:
        return value
    try:
        return read(value, *args) if args else read(value)  # *() costs a plain call twice
    except InputError as exc:
        exc.path = (key,) + exc.path
        raise


def members(obj, keys, read) -> list:
    """[member(obj, key, read) for key in keys], read without paths first; on
    a failure the members are read again so that the error names its key."""
    try:
        return [read(obj[key]) for key in keys]
    except (KeyError, TypeError, InputError):
        for key in keys:
            member(obj, key, read)
        raise


def items(value, read=None, *args, length: int | None = None) -> list:
    """A JSON list, of `length` items if given, each read by `read(item, *args)`."""
    if type(value) is not list:
        raise _expected("a list", value)
    if length is not None and len(value) != length:
        raise ParseError(f"expected a list of {length} items, got {len(value)}")
    if read is None:
        return value
    try:
        return [read(item, *args) for item in value] if args else [read(item) for item in value]
    except InputError:  # readers are pure: the first item to fail again is the culprit
        for index, item in enumerate(value):
            try:
                read(item, *args)
            except InputError as exc:
                exc.path = (index,) + exc.path
                raise
        raise


def entries(value, key, read, *args) -> dict:
    """A JSON object used as a map: each value read by `read(value, *args)`,
    each name by `key(name)` unless `key` is None."""
    if type(value) is not dict:
        raise _expected("an object", value)
    out = {}
    name = None
    try:
        for name, item in value.items():
            out[name if key is None else key(name)] = read(item, *args)
    except InputError as exc:
        exc.path = (name,) + exc.path
        raise
    return out


def int_from_json(value, low: int | None = None, high: int | None = None) -> int:
    """An integer, required to lie in [low, high] where those are given."""
    if type(value) is not int:
        digits = value[1:] if type(value) is str and value[:1] in "+-" else value
        if not (type(digits) is str and digits.isascii() and digits.isdigit()):
            raise _expected("an integer or an integer string", value)
        try:
            value = int(value)
        except ValueError as exc:  # more digits than int() converts
            raise PreconditionError(f"integer string of {len(value)} characters") from exc
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"from {low} to {high}"
        raise PreconditionError(f"expected an integer {bounds}, got {value}")
    return value


def frac_from_json(value) -> Fraction:
    """A rational: a string "n" or "n/d", or a JSON integer."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise _expected('a rational string such as "-3/4"', value)
    num, _, den = value.partition("/")
    try:  # int() per part: Fraction(str) would run a second regex
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"not a rational number: {value[:40]!r}") from exc


def to_fraction(value) -> Fraction:
    """A rational handed to a library constructor: a Fraction, or what
    `frac_from_json` reads (an integer that is not a bool, or a rational
    string). A float or a bool raises ParseError, so no binary fraction is
    ever taken as exact."""
    if isinstance(value, Fraction):
        return value
    return frac_from_json(value)


def id_from_json(value):
    """A vertex, edge or point identifier: a JSON string or integer."""
    if type(value) is str or type(value) is int:
        return value
    raise _expected("an identifier (a string or an integer)", value)

"""Exact dense linear algebra used internally.

One elimination: fraction-free (Bareiss) forward elimination of integer rows
of any shape, skipping a column without a pivot, and one integer back
substitution scaled by the last pivot. The module routines
(`row_echelon_basis`, `gauss_solve`, `is_invertible`) first clear each row's
denominators, which keeps the span, and divide once per entry at the end.
Products run in integers too: `scaled` gives a rational matrix as (d, d A)
once, and `scaled_mat_vec` takes integer dot products on it. `reduce_mod_span`
reduces row by row in the vector's own arithmetic, which a p-adic vector needs.

Bareiss elimination is split from solving: `bareiss_factor` runs the integer
forward elimination once and records it, and `bareiss_solve` solves any
number of right-hand sides against that record. A rational right-hand side
(int and Fraction entries) is solved by integer-only work and one Fraction
division per entry. Any other coefficient type (PadicNumber,
UniversalScalar) replays the recorded multipliers on b with +, -,
multiplication by int and exact division by each pivot, so its precision
follows the elimination step by step. The replay is sparse: a zero
multiplier only multiplies the row's pending exact scale by pivot/prev,
which is applied in one multiplication when the row next meets a nonzero
multiplier or becomes the pivot row, and back substitution skips the zero
entries of the eliminated matrix. Cost follows the nonzeros of the factor;
digits and precision are those of the dense replay. Each nonzero multiplier
costs one pass over the coefficients for each of four operations: two exact
integer scalings, one signed sum and one exact division by the previous
pivot (the `padic` rules, which build no lifted product per coefficient).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .record import Record


class BareissFactor(Record):
    """Record of fraction-free forward elimination of a square integer matrix:
    `upper` is the eliminated matrix (upper triangular, last pivot +-det) and
    `steps` the record `_eliminate` returns."""

    __slots__ = _fields = ("upper", "steps")


def _eliminate(a):
    """Forward elimination of the integer rows `a` in place, skipping a column
    with no nonzero entry at or below row k = len(pivots); returns (steps,
    pivot columns), `steps[k]` = (row swapped into k, pivot, previous pivot,
    multipliers a[r][col] for the rows r below k). Entries stay minors of the
    input (Sylvester's identity), so each `//` is exact."""
    steps, pivots = [], []
    m = len(a)
    prev = 1
    for col in range(len(a[0]) if a else 0):
        k = len(pivots)
        piv = next((r for r in range(k, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        top = a[k][col:]
        pivot = top[0]
        factors = tuple(a[r][col] for r in range(k + 1, m))
        for r, f in enumerate(factors, k + 1):
            a[r][col:] = [(pivot * x - f * y) // prev for x, y in zip(a[r][col:], top)]
        steps.append((piv, pivot, prev, factors))
        pivots.append(col)
        prev = pivot
    return steps, pivots


def _back_substitute(upper, b, det):
    """det * x for upper x = b, integral by Cramer's rule when `upper` came
    out of `_eliminate` and det is its last pivot."""
    n = len(b)
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = upper[i]
        acc = det * b[i]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return y


def _clear_denominators(vec):
    """(d, d * vec) for int and Fraction entries, d the lcm of their denominators."""
    d = math.lcm(*(v.denominator for v in vec))
    return d, [v.numerator * (d // v.denominator) for v in vec]


def bareiss_factor(matrix) -> BareissFactor:
    """Fraction-free forward elimination of square nonsingular integer A,
    recorded for `bareiss_solve`; every intermediate stays integral."""
    a = [list(row) for row in matrix]
    steps, pivots = _eliminate(a)
    if len(pivots) != len(a):
        raise PreconditionError("singular system in fraction-free solve")
    return BareissFactor(tuple(tuple(row) for row in a), tuple(steps))


def bareiss_solve(factor: BareissFactor, rhs):
    """Solve A x = b against the recorded elimination of A.

    Rational b is scaled to integers by the lcm of its denominators; every
    replayed entry is then a minor of [A | b] (Sylvester's identity), so the
    divisions are exact `//`, and back substitution is scaled by the last
    pivot so that each x_i costs one Fraction division. Other coefficient
    types replay the recorded multipliers with exact division by int.

    That replay does work only for nonzero entries of the factor. Under a
    zero multiplier the step is b[r] * pivot / prev, so it is deferred into
    an exact Fraction scale owed by row r (scales move with row swaps) and
    applied in one multiplication when the row next meets a nonzero
    multiplier or becomes the pivot row; every row becomes the pivot row
    before back substitution, which skips zero entries of `upper`. In the
    capped-relative model multiplying by c1 and then c2 gives the digits of
    multiplying by c1 * c2, so the result is the dense replay's. A value
    that is the distinguished zero takes the full update instead: there the
    dense operations pass the other operand's precision on to the zero.
    """
    if all(type(v) is int or type(v) is Fraction for v in rhs):
        return _solve_rational(factor, rhs)
    a = factor.upper
    b = list(rhs)
    n = len(b)
    scale = [1] * n
    for col, (piv, pivot, prev, factors) in enumerate(factor.steps):
        if piv != col:
            b[col], b[piv] = b[piv], b[col]
            scale[col], scale[piv] = scale[piv], scale[col]
        if scale[col] != 1:
            b[col] = b[col] * scale[col]
        bc = b[col]
        for r, f in enumerate(factors, col + 1):
            if f == 0 and not b[r].is_zero:
                scale[r] *= Fraction(pivot, prev)
                continue
            if scale[r] != 1:
                b[r] = b[r] * scale[r]
                scale[r] = 1
            b[r] = (b[r] * pivot - bc * f) / prev
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = b[i]
        for j in range(i + 1, n):
            if row[j] or acc.is_zero:
                acc = acc - x[j] * row[j]
        x[i] = acc / row[i]
    return x


def _solve_rational(factor: BareissFactor, rhs):
    scale, b = _clear_denominators(rhs)
    for col, (piv, pivot, prev, factors) in enumerate(factor.steps):
        if piv != col:
            b[col], b[piv] = b[piv], b[col]
        bc = b[col]
        for r, f in enumerate(factors, col + 1):
            b[r] = (b[r] * pivot - bc * f) // prev
    det = factor.steps[-1][1] if factor.steps else 1
    return [Fraction(v, det * scale) for v in _back_substitute(factor.upper, b, det)]


def gauss_solve(matrix, rhs, singular: str = "singular system in exact solve"):
    """Solve A x = b for square rational A and rational b by echelonizing
    [A | b] once; a singular A raises PreconditionError(singular)."""
    n = len(matrix)
    rows, pivots = row_echelon_basis(
        [list(row) + [b] for row, b in zip(matrix, rhs, strict=True)]
    )
    if pivots != list(range(n)):
        raise PreconditionError(singular)
    return [row[n] for row in rows]


def is_invertible(matrix) -> bool:
    return len(_eliminate([_clear_denominators(row)[1] for row in matrix])[1]) == len(matrix)


def scaled(matrix):
    """(d, d * matrix) with integer rows, d the lcm of the entries' denominators."""
    d = math.lcm(*(v.denominator for row in matrix for v in row))
    return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in matrix)


def scaled_mat_vec(form, vec):
    """matrix vec from (d, d * matrix) and a rational vec: its denominators are
    cleared once, and each entry is an integer dot product divided once."""
    d, rows = form
    e, v = _clear_denominators(vec)
    return tuple(Fraction(x, d * e) for x in int_mat_vec(rows, v))


def int_mat_vec(rows, vec):
    """Integer dot products of the rows with vec, skipping zero row entries."""
    return [sum(a * x for a, x in zip(row, vec) if a) for row in rows]


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def row_echelon_basis(vectors):
    """Reduced row echelon form of rational vectors: (nonzero rows, pivot
    columns), every entry a Fraction. Each column of the eliminated rows is
    back-substituted against their pivot columns, then divided once."""
    a = [_clear_denominators(v)[1] for v in vectors]
    steps, pivots = _eliminate(a)
    a = a[: len(pivots)]
    det = steps[-1][1] if steps else 1
    square = [[row[c] for c in pivots] for row in a]
    columns = [_back_substitute(square, col, det) for col in zip(*a)]
    return [[Fraction(col[i], det) for col in columns] for i in range(len(a))], pivots


def reduce_mod_span(vec, echelon_rows, pivots):
    """Canonical coset representative of vec modulo the echelonized span."""
    out = list(vec)
    for row, col in zip(echelon_rows, pivots):
        coeff = out[col]
        if isinstance(coeff, (int, Fraction)) and coeff == 0:
            continue
        out = [x - coeff * y for x, y in zip(out, row)]
    return tuple(out)

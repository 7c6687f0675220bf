"""Exact dense linear algebra used internally.

Two routines: fraction-free (Bareiss) elimination over integer matrices, used
for graph Laplacians, and one Gauss-Jordan echelon routine over Fractions
(`row_echelon_basis`) for the module-theoretic computations; `gauss_solve`
and `is_invertible` read their answers off it.

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
digits and precision are those of the dense replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


@dataclass(frozen=True)
class BareissFactor:
    """Record of fraction-free forward elimination of a square integer matrix.

    `upper` is the eliminated matrix (upper triangular, last pivot +-det);
    `steps[col]` is (pivot row swapped into col, pivot, previous pivot,
    multipliers a[r][col] for the rows r below col).
    """

    upper: tuple
    steps: tuple


def bareiss_factor(matrix) -> BareissFactor:
    """Fraction-free forward elimination of square nonsingular integer A,
    recorded for `bareiss_solve`; every intermediate stays integral."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    steps = []
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("singular system in fraction-free solve")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        top = a[col][col:]
        pivot = top[0]
        factors = tuple(a[r][col] for r in range(col + 1, n))
        for r, f in enumerate(factors, col + 1):
            a[r][col:] = [(pivot * x - f * y) // prev for x, y in zip(a[r][col:], top)]
        steps.append((piv, pivot, prev, factors))
        prev = pivot
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
    scale = math.lcm(*(v.denominator for v in rhs))
    b = [v.numerator * (scale // v.denominator) for v in rhs]
    for col, (piv, pivot, prev, factors) in enumerate(factor.steps):
        if piv != col:
            b[col], b[piv] = b[piv], b[col]
        bc = b[col]
        for r, f in enumerate(factors, col + 1):
            b[r] = (b[r] * pivot - bc * f) // prev
    a = factor.upper
    det = factor.steps[-1][1] if factor.steps else 1
    n = len(b)
    y = [0] * n  # y = det * x, integral by Cramer's rule
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = det * b[i]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return [Fraction(v, det * scale) for v in y]


def gauss_solve(matrix, rhs, singular: str = "singular system in exact solve"):
    """Solve A x = b for square Fraction A, generic b, by echelonizing
    [A | b] once; a singular A raises PreconditionError(singular)."""
    n = len(matrix)
    rows, pivots = row_echelon_basis(
        [[Fraction(v) for v in row] + [b] for row, b in zip(matrix, rhs, strict=True)]
    )
    if pivots != list(range(n)):
        raise PreconditionError(singular)
    return [row[n] for row in rows]


def is_invertible(matrix) -> bool:
    n = len(matrix)
    rows = [[Fraction(v) for v in row] for row in matrix]
    return len(row_echelon_basis(rows)[1]) == n


def mat_vec(matrix, vec):
    """matrix vec over Fraction, skipping zero entries as `mat_mul` does."""
    return tuple(sum((x * v for x, v in zip(row, vec) if x), Fraction(0)) for row in matrix)


def mat_mul(a, b):
    """a b over Fraction, skipping products with a zero factor, so that a
    sparse factor (a monodromy operator) costs little."""
    cols = range(len(b[0]) if b else 0)
    return tuple(
        tuple(sum((x * r[j] for x, r in zip(row, b) if x and r[j]), Fraction(0)) for j in cols)
        for row in a
    )


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def row_echelon_basis(vectors):
    """Echelonize a list of Fraction vectors; returns (rows, pivot columns)."""
    rows = [list(v) for v in vectors]
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    rows = [row for row in rows if any(v != 0 for v in row)]
    return rows, pivots


def reduce_mod_span(vec, echelon_rows, pivots):
    """Canonical coset representative of vec modulo the echelonized span."""
    out = list(vec)
    for row, col in zip(echelon_rows, pivots):
        coeff = out[col]
        if isinstance(coeff, (int, Fraction)) and coeff == 0:
            continue
        out = [x - coeff * y for x, y in zip(out, row)]
    return tuple(out)

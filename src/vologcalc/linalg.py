"""Exact dense linear algebra used internally.

Two routines: fraction-free (Bareiss) elimination over integer matrices with
a generic right-hand side, used for graph Laplacians, and one Gauss-Jordan
echelon routine over Fractions (`row_echelon_basis`) for the module-theoretic
computations; `gauss_solve` and `is_invertible` read their answers off it.
Bareiss right-hand sides only need +, -, multiplication by int and exact
division by int, so the same code serves Fraction, PadicNumber and
UniversalScalar entries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError


def bareiss_solve(matrix, rhs):
    """Solve A x = b for square integer A (nonsingular) and generic b.

    Fraction-free forward elimination keeps all matrix intermediates integral;
    the RHS column is carried with the same exact updates.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    b = list(rhs)
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("singular system in fraction-free solve")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col]
            for c in range(col, n):
                a[r][c] = (pivot * a[r][c] - factor * a[col][c]) // prev
            b[r] = (b[r] * pivot - b[col] * factor) / prev
        prev = pivot
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc = acc - x[j] * a[i][j]
        x[i] = acc / a[i][i]
    return x


def gauss_solve(matrix, rhs):
    """Solve A x = b for square Fraction A (nonsingular), generic b, by
    echelonizing [A | b]."""
    n = len(matrix)
    rows, pivots = row_echelon_basis(
        [[Fraction(v) for v in row] + [b] for row, b in zip(matrix, rhs, strict=True)]
    )
    if pivots != list(range(n)):
        raise PreconditionError("singular system in exact solve")
    return [row[n] for row in rows]


def is_invertible(matrix) -> bool:
    n = len(matrix)
    rows = [[Fraction(v) for v in row] for row in matrix]
    return len(row_echelon_basis(rows)[1]) == n


def mat_vec(matrix, vec):
    return tuple(_dot(row, vec) for row in matrix)


def _dot(row, vec):
    acc = row[0] * vec[0]
    for j in range(1, len(vec)):
        acc = acc + row[j] * vec[j]
    return acc


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
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

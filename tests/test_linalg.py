import random
from fractions import Fraction

import pytest

from perfbench import oracle
from vologcalc.errors import PreconditionError
from vologcalc.linalg import (
    bareiss_factor,
    bareiss_solve,
    gauss_solve,
    is_invertible,
    row_echelon_basis,
)
from vologcalc.padic import PadicNumber, UniversalScalar, make_padic, padic_to_json, scalar_to_json

from .oracles import bareiss_reference, dense_mat_vec, rational_solve


def _random_matrix(rng, n):
    """Small Fraction matrix; about half are made singular by a dependent row."""
    m = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        c = Fraction(rng.randint(-2, 2)) if i != j else 0
        m[i] = [c * x for x in m[j]]
    return m


def test_is_invertible_and_gauss_solve_random():
    rng = random.Random(1968)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        invertible = len(oracle.rref(m)[1]) == n
        assert is_invertible(m) == invertible
        if invertible:
            assert dense_mat_vec(m, gauss_solve(m, b)) == list(b)
        else:
            singular += 1
            with pytest.raises(PreconditionError):
                gauss_solve(m, b)
    assert 50 < singular < 250
    assert row_echelon_basis([]) == ([], [])
    dependent = zero_column = 0
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        den = [rng.randint(1, 12) for _ in range(rows)]  # one denominator per row
        m = [[Fraction(rng.choice([0, rng.randint(-9, 9)]), d) for _ in range(cols)] for d in den]
        if rows > 1 and rng.random() < 0.4:
            i, j = rng.sample(range(rows), 2)
            m[i] = [Fraction(rng.randint(-3, 3), den[i]) * x for x in m[j]]
            dependent += 1
        if cols and rng.random() < 0.3:
            k = rng.randrange(cols)
            for row in m:
                row[k] = Fraction(0)
            zero_column += 1
        got = row_echelon_basis(m)
        assert got == oracle.rref(m), m
        assert all(type(v) is Fraction for row in got[0] for v in row)
    assert dependent > 50 and zero_column > 50


def test_bareiss_factor_solves_rational_and_padic_right_hand_sides():
    """Sparse integer matrices, so pivot rows get swapped; one factor serves
    several right-hand sides of each kind."""
    rng = random.Random(1982)
    swaps = singular = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        m = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(n)]
        if len(oracle.rref(m)[1]) < n:
            singular += 1
            with pytest.raises(PreconditionError):
                bareiss_factor(m)
            continue
        factor = bareiss_factor(m)
        swaps += any(piv != col for col, (piv, *_) in enumerate(factor.steps))
        for _ in range(3):
            b = [
                rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                for _ in range(n)
            ]
            x = bareiss_solve(factor, b)
            assert all(type(v) is Fraction for v in x)
            assert x == rational_solve(m, b)
            p = rng.choice([3, 5, 7])
            b = [
                make_padic(p, rng.randint(-999, 999), rng.choice([1, p]), rng.randint(3, 9))
                for _ in range(n)
            ]
            got = [padic_to_json(v) for v in bareiss_solve(factor, b)]
            assert got == [padic_to_json(v) for v in bareiss_reference(m, b)]
    assert swaps > 20 and singular > 20


def _relabelled_reduced_laplacian(rng, n, pairs):
    """Integer Laplacian of the graph on range(n) with a random vertex
    numbering, anchor row and column deleted: sparse, so most elimination
    multipliers are zero."""
    perm = list(range(n))
    rng.shuffle(perm)
    lap = [[0] * n for _ in range(n)]
    for t, h in pairs:
        t, h = perm[t], perm[h]
        lap[t][t] += 1
        lap[h][h] += 1
        lap[t][h] = lap[h][t] = -1
    k = rng.randrange(n)
    return [row[:k] + row[k + 1 :] for i, row in enumerate(lap) if i != k]


def _grid_pairs(rows, cols):
    at = lambda r, c: r * cols + c  # noqa: E731
    pairs = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    return rows * cols, pairs + [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]


def _necklace_pairs(rng, beads, bead_len):
    pairs = []
    for b in range(beads):
        base = b * bead_len
        pairs += [(base + i, base + (i + 1) % bead_len) for i in range(bead_len)]
        if b:
            pairs.append((rng.randrange(b * bead_len), base + rng.randrange(bead_len)))
    return beads * bead_len, pairs


def _padic_or_zero(rng, p, zero_share):
    if rng.random() < zero_share:
        return PadicNumber.zero(p, rng.randint(1, 12))
    num = rng.randint(1, p**5) * rng.choice([1, -1, p])
    return make_padic(p, num, rng.choice([1, 2, p]), rng.randint(2, 12))


def test_sparse_replay_keeps_exact_zero_precisions():
    """Zero right-hand sides of varied precision and branch polynomials with
    zero and interior-zero coefficients, on relabelled grid and necklace
    Laplacians: the sparse replay equals the one-shot dense loop byte for
    byte, including the precision carried by every zero."""
    rng = random.Random(2024)
    deferred = zeros_out = 0
    for case in range(32):
        if case % 2:
            n, pairs = _necklace_pairs(rng, rng.randint(2, 3), rng.randint(3, 5))
        else:
            n, pairs = _grid_pairs(rng.randint(2, 4), rng.randint(3, 5))
        m = _relabelled_reduced_laplacian(rng, n, pairs)
        factor = bareiss_factor(m)
        deferred += sum(f == 0 for *_, factors in factor.steps for f in factors)
        p = (2, 3, 5, 7)[case % 4]
        zero_share = 1 if case % 3 == 2 else 0.6  # all-zero b: only precisions differ
        b = [_padic_or_zero(rng, p, zero_share) for _ in m]
        got = [padic_to_json(v) for v in bareiss_solve(factor, b)]
        assert got == [padic_to_json(v) for v in bareiss_reference(m, b)], case
        zeros_out += sum(v["unit"] == "0" for v in got)
        s = [
            UniversalScalar.of(
                [_padic_or_zero(rng, p, zero_share) for _ in range(rng.randint(1, 3))]
            )
            for _ in m
        ]
        got = [scalar_to_json(v) for v in bareiss_solve(factor, s)]
        assert got == [scalar_to_json(v) for v in bareiss_reference(m, s)], case
    assert deferred > 400 and zeros_out > 0

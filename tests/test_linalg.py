import random
from fractions import Fraction

import pytest

from vologcalc.errors import PreconditionError
from vologcalc.linalg import bareiss_factor, bareiss_solve, gauss_solve, is_invertible, mat_vec
from vologcalc.padic import make_padic, padic_to_json

from .oracles import bareiss_reference, dense_solve, rank_oracle


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
        invertible = rank_oracle(m) == n
        assert is_invertible(m) == invertible
        if invertible:
            assert mat_vec(m, gauss_solve(m, b)) == tuple(b)
        else:
            singular += 1
            with pytest.raises(PreconditionError):
                gauss_solve(m, b)
    assert 50 < singular < 250


def test_bareiss_factor_solves_rational_and_padic_right_hand_sides():
    """Sparse integer matrices, so pivot rows get swapped; one factor serves
    several right-hand sides of each kind."""
    rng = random.Random(1982)
    swaps = singular = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        m = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(n)]
        if rank_oracle(m) < n:
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
            assert x == dense_solve(m, b)
            p = rng.choice([3, 5, 7])
            b = [
                make_padic(p, rng.randint(-999, 999), rng.choice([1, p]), rng.randint(3, 9))
                for _ in range(n)
            ]
            got = [padic_to_json(v) for v in bareiss_solve(factor, b)]
            assert got == [padic_to_json(v) for v in bareiss_reference(m, b)]
    assert swaps > 20 and singular > 20

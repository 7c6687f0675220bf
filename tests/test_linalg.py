import random
from fractions import Fraction

import pytest

from vologcalc.errors import PreconditionError
from vologcalc.linalg import gauss_solve, is_invertible, mat_vec

from .oracles import rank_oracle


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

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vologcalc.errors import LambdaDegreeOverflow, PreconditionError
from vologcalc.padic import (
    LAMBDA_CAP,
    PRIMALITY_BOUND,
    PadicContext,
    PadicNumber,
    _is_prime,
    UniversalScalar,
    derive_at_zero,
    from_fraction,
    iwasawa_log,
    lambda_scalar,
    make_padic,
    padic_from_json,
    padic_to_json,
    require_prime,
    scalar_from_json,
    scalar_to_json,
)

from .oracles import iwasawa_log_reference

PRIMES = [2, 3, 5, 7]


def test_make_padic_examples():
    x = make_padic(5, 10, 1, 4)
    assert x.val == 1 and x.unit == 2

    # oracle: extended-Euclid inverse of 2 mod 5^4
    inv = pow(2, -1, 5**4)
    assert inv == 313 and (2 * inv) % 625 == 1
    y = make_padic(5, 1, 2, 4)
    assert y.val == 0 and y.unit == inv

    z = make_padic(5, 0, 1, 4)
    assert z.is_zero and z.valuation == math.inf


def test_make_padic_errors():
    with pytest.raises(PreconditionError):
        make_padic(6, 1, 1, 4)
    with pytest.raises(PreconditionError):
        make_padic(5, 1, 0, 4)
    with pytest.raises(PreconditionError):
        make_padic(5, 1, 1, 0)


def test_arithmetic_against_rationals():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice(PRIMES)
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        xa = make_padic(p, a.numerator, a.denominator, 15)
        xb = make_padic(p, b.numerator, b.denominator, 15)
        assert xa + xb == make_padic(p, (a + b).numerator, (a + b).denominator, 10)
        assert xa - xb == make_padic(p, (a - b).numerator, (a - b).denominator, 10)
        assert xa * xb == make_padic(p, (a * b).numerator, (a * b).denominator, 10)
        if b != 0:
            q = a / b
            assert xa / xb == make_padic(p, q.numerator, q.denominator, 10)


def test_mixed_coercion():
    x = make_padic(5, 7, 3, 8)
    assert x + 0 == x
    assert x * 1 == x
    assert x - Fraction(7, 3) == 0
    assert 2 * x == x + x
    assert 1 / make_padic(5, 2, 1, 8) == Fraction(1, 2)


def test_precision_tracking():
    p = 5
    a = make_padic(p, 7, 1, 10)
    b = make_padic(p, 3, 1, 4)
    assert (a * b).prec == 4
    assert (a / b).prec == 4
    assert (a + b).abs_prec == min(a.abs_prec, b.abs_prec)
    # cancellation collapses to the distinguished zero
    assert (a - a).is_zero


def test_zero_conventions():
    z = PadicNumber.zero(5, 6)
    x = make_padic(5, 2, 1, 6)
    assert (z + x) == x and (x + z) == x
    assert (z * x).is_zero
    with pytest.raises(ZeroDivisionError):
        x / z


@st.composite
def padics(draw, zero_ok=False):
    p = draw(st.sampled_from(PRIMES))
    num = draw(st.integers(min_value=-500, max_value=500))
    if not zero_ok and num == 0:
        num = 1
    den = draw(st.integers(min_value=1, max_value=60))
    return make_padic(p, num, den, 14)


@given(padics(), padics())
@settings(max_examples=80)
def test_add_commutes(a, b):
    if a.p != b.p:
        return
    assert a + b == b + a
    assert a * b == b * a


def test_iwasawa_log_examples():
    p5 = make_padic(5, 5, 1, 10)
    lg = iwasawa_log(p5)
    assert lg.degree == 1
    assert lg.coeffs[0].is_zero
    assert lg.coeffs[1] == 1

    one = make_padic(7, 1, 1, 10)
    assert iwasawa_log(one).is_zero

    # oracle for log(6) in Q_5: direct truncated series sum of log(1+5)
    N = 12
    six = make_padic(5, 6, 1, N)
    lg6 = iwasawa_log(six)
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction((-1) ** (k + 1) * 5**k, k)
    expect = make_padic(5, total.numerator, total.denominator, N)
    # compare at absolute precision N
    assert lg6.coeffs[0] == expect
    assert lg6.derive_at_zero().is_zero


def test_iwasawa_log_zero_rejected():
    with pytest.raises(PreconditionError):
        iwasawa_log(PadicNumber.zero(5, 4))


def test_iwasawa_log_matches_the_teichmuller_reference():
    """log(<u>) as log(u^(p-1))/(p-1) with an integer series bound gives the
    bytes of the Teichmueller split with a float bound: 1-units 1 +- p^e, the
    root of unity -1 and seeded random units, at every valuation -3..3."""
    rng = random.Random(13)
    cases = []
    for p in (2, 3, 5, 7, 101, 10007):
        for prec in (1, 2, 3, 5, 20, 60):
            units = [-1] + [1 + s * p**e for e in (1, 2, 3) for s in (1, -1)]
            units += [rng.randrange(1, p**prec) for _ in range(2)]
            for val in range(-3, 4):
                cases += [(p, Fraction(u) * Fraction(p) ** val, prec) for u in units if u % p]
    cases += [(2, Fraction(7, 3), 200), (3, Fraction(-11, 2), 200), (101, Fraction(7, 3), 200)]
    for p, q, prec in cases:
        z = make_padic(p, q.numerator, q.denominator, prec)
        got, want = scalar_to_json(iwasawa_log(z)), scalar_to_json(iwasawa_log_reference(z))
        assert got == want, (p, q, prec)


def test_derive_at_zero_examples():
    p = 3
    u = make_padic(p, 2 * p**3, 1, 12)
    assert derive_at_zero(iwasawa_log(u)) == 3
    const = UniversalScalar.constant(make_padic(p, 4, 1, 8))
    assert derive_at_zero(const).is_zero


def test_derive_is_valuation_additive():
    # brute enumeration over small pairs
    for p in (2, 5):
        for a in range(1, 12):
            for b in range(1, 12):
                la = iwasawa_log(make_padic(p, a, 1, 12))
                lb = iwasawa_log(make_padic(p, b, 1, 12))
                va = derive_at_zero(la + lb)
                ab = Fraction(a * b)
                want = 0
                n = a * b
                while n % p == 0:
                    n //= p
                    want += 1
                assert va == want
                assert ab == ab  # keep oracle explicit


@given(padics(), padics())
@settings(max_examples=60, deadline=None)
def test_log_is_homomorphism(a, b):
    if a.p != b.p:
        return
    lhs = iwasawa_log(a * b)
    rhs = iwasawa_log(a) + iwasawa_log(b)
    assert lhs == rhs


@given(padics(), padics(), padics())
@settings(max_examples=50, deadline=None)
def test_specialize_commutes_with_ring_ops(a, b, c):
    if not (a.p == b.p == c.p):
        return
    x = iwasawa_log(a)
    y = iwasawa_log(b)
    assert (x + y).specialize(c) == x.specialize(c) + y.specialize(c)
    assert (x * y).specialize(c) == x.specialize(c) * y.specialize(c)


@pytest.mark.xfail(strict=True, reason="item 1(a): a cancelled inexact sum comes back as the exact zero")
def test_specialize_commutes_with_a_cancelling_product():
    """A case that `test_specialize_commutes_with_ring_ops` drew: the left side
    is O(2^inf), the right side 1*2^18 + O(2^23); the sound answer is O(2^14)."""
    x = iwasawa_log(PadicNumber(2, 1, 5463, 14))
    c = PadicNumber(2, 3, 15, 14)
    assert (x * x).specialize(c) == x.specialize(c) * x.specialize(c)


def test_branch_degree_overflow_past_the_cap():
    lam = top = lambda_scalar(5, 8)
    for _ in range(LAMBDA_CAP - 1):
        top = top * lam
    assert top.degree == LAMBDA_CAP == 4
    with pytest.raises(
        LambdaDegreeOverflow, match="branch-parameter degree 5 exceeds the configured cap 4"
    ):
        top * lam


def test_scalar_arithmetic_and_derivative():
    ctx = PadicContext(5, 10)
    s = ctx.scalar(3, 2, 1)  # 3 + 2L + L^2
    t = ctx.scalar(1, 1)
    prod = s * t
    assert prod == ctx.scalar(3, 5, 3, 1)
    assert s.derivative() == ctx.scalar(2, 2)
    assert s.derive_at_zero() == 2
    assert (s - s).is_zero
    assert s / 3 == ctx.scalar(1, Fraction(2, 3), Fraction(1, 3))


def test_scalar_specializes_constant_term():
    ctx = PadicContext(7, 8)
    s = ctx.scalar(4, 9)
    assert s.constant_term() == 4
    assert s.specialize(ctx.zero()) == 4


def test_two_adic_torsion_has_zero_log():
    # the only roots of unity in Q_2 are +-1; a homomorphic log kills them
    minus_one = make_padic(2, -1, 1, 18)
    assert iwasawa_log(minus_one).is_zero
    assert iwasawa_log(minus_one * minus_one).is_zero


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_precision_never_grows_along_chains(data):
    # multiplicative steps never claim more mantissa digits than their
    # inputs; additive steps never claim knowledge past the coarser modulus
    p = data.draw(st.sampled_from(PRIMES))
    x = make_padic(p, data.draw(st.integers(1, 400)), 1, data.draw(st.integers(3, 18)))
    for _ in range(data.draw(st.integers(1, 6))):
        y = make_padic(
            p,
            data.draw(st.integers(1, 400)),
            data.draw(st.integers(1, 40)),
            data.draw(st.integers(3, 18)),
        )
        op = data.draw(st.sampled_from(["add", "sub", "mul", "div"]))
        if op in ("add", "sub"):
            out = x + y if op == "add" else x - y
            # cancellation below the working modulus collapses to the
            # distinguished zero, whose sentinel valuation is infinite
            assert out.is_zero or out.abs_prec <= min(x.abs_prec, y.abs_prec)
        else:
            out = x * y if op == "mul" else x / y
            assert out.prec <= min(x.prec, y.prec)
        if out.is_zero:
            break
        x = out


@st.composite
def scalars_and_constants(draw, p=None):
    """A branch polynomial with exact-zero (any precision), interior-zero and
    negative-valuation coefficients, and an int or Fraction constant that may
    be 0 or carry p in its numerator or denominator; p is drawn unless given."""
    p = draw(st.sampled_from(PRIMES if p is None else [p]))
    coeffs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        prec = draw(st.integers(min_value=1, max_value=12))
        if draw(st.booleans()):
            coeffs.append(PadicNumber.zero(p, prec))
        else:
            num = draw(st.integers(min_value=1, max_value=p**6)) * draw(st.sampled_from([1, -1, p]))
            den = draw(st.sampled_from([1, 2, p, p * p, 3 * p]))
            coeffs.append(make_padic(p, num, den, prec))
    num = draw(st.integers(min_value=-50, max_value=50)) * draw(st.sampled_from([1, p, p * p]))
    den = draw(st.sampled_from([1, 2, 7, p, p**3]))
    c = num if draw(st.booleans()) else Fraction(num, den)
    return UniversalScalar.of(coeffs), c


@given(scalars_and_constants())
@settings(max_examples=300)
def test_scalar_times_constant_is_the_one_coefficient_product(sc):
    """Multiplying by a constant gives, digit for digit, the product with the
    constant lifted to a one-coefficient scalar at the reference precision."""
    s, c = sc
    lifted = UniversalScalar.of([from_fraction(s.p, Fraction(c), s._ref_prec())])
    assert scalar_to_json(s * c) == scalar_to_json(s * lifted)
    assert scalar_to_json(c * s) == scalar_to_json(s * lifted)
    if c != 0:
        inverse = UniversalScalar.of([from_fraction(s.p, 1 / Fraction(c), s._ref_prec())])
        assert scalar_to_json(s / c) == scalar_to_json(s * inverse)


@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(scalars_and_constants(p), scalars_and_constants(p))
))
@settings(max_examples=300)
def test_subtraction_is_one_signed_sum(pair):
    """x - y, x - c and c - x agree field for field, zero precisions
    included, with x + (-y), x + (-c) and (-x) + c: for branch polynomials of
    unequal lengths and for every pair of their coefficients."""
    (s, c), (t, _) = pair
    assert scalar_to_json(s - t) == scalar_to_json(s + (-t))
    assert scalar_to_json(s - c) == scalar_to_json(s + (-c))
    assert scalar_to_json(c - s) == scalar_to_json((-s) + c)
    for x, y in itertools.product(s.coeffs, t.coeffs):
        assert padic_to_json(x - y) == padic_to_json(x + (-y))
        assert padic_to_json(x - c) == padic_to_json(x + (-c))
        assert padic_to_json(c - x) == padic_to_json((-x) + c)


def test_scalar_lifts_a_rational_at_the_constant_absolute_precision():
    """A constant scalar meets an int or Fraction as its PadicNumber does:
    875 = 7 * 5^3 is known mod 5^23, and so is 875 + 1. An exact-zero
    constant has no absolute precision; there the rational gets the
    scalar's reference precision in relative digits, as before."""
    x = make_padic(5, 875, 1, 20)
    s = UniversalScalar.constant(x)
    assert repr(s + 1) == "US[876*5^0 + O(5^23)]"
    for c in (1, -4, Fraction(2, 7), Fraction(1, 25), 5**30):
        assert scalar_to_json(s + c) == scalar_to_json(UniversalScalar.constant(x + c))
        assert scalar_to_json(s - c) == scalar_to_json(UniversalScalar.constant(x - c))
        assert scalar_to_json(c - s) == scalar_to_json(UniversalScalar.constant(c - x))
        assert (s == c) == (x == c)
    assert repr(lambda_scalar(5, 8) + 5) == "US[1*5^1 + O(5^9), 1*5^0 + O(5^8)]"


def test_json_round_trip():
    x = make_padic(5, 10, 3, 6)
    assert padic_from_json(padic_to_json(x)) == x
    z = PadicNumber.zero(5, 6)
    assert padic_from_json(padic_to_json(z)).is_zero
    s = iwasawa_log(make_padic(5, 50, 7, 9))
    assert scalar_from_json(scalar_to_json(s)) == s
    with pytest.raises(PreconditionError):
        padic_from_json({"p": 5, "val": 0, "unit": "10", "prec": 2})


def test_is_prime_agrees_with_trial_division():
    sieve = [False, False] + [True] * (20_000 - 2)
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(20_000) if _is_prime(n)] == [n for n in range(20_000) if sieve[n]]


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    # strong pseudoprimes to the first 4 and to the first 9 prime bases
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(PreconditionError, match=f"{n} is not prime"):
            require_prime(n)
    for n in (10**14 + 31, 2**61 - 1):
        start = time.perf_counter()
        assert require_prime(n) == n
        assert time.perf_counter() - start < 0.01
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**89 - 1):
        with pytest.raises(PreconditionError, match="bound of the primality test"):
            require_prime(n)


def test_padic_json_ranges_name_the_field():
    good = {"p": 5, "val": -3, "unit": "7", "prec": 4}
    assert padic_from_json(good) == PadicNumber(5, -3, 7, 4)
    for key, value in (("prec", 0), ("prec", 10**12), ("val", -(10**12)), ("unit", -7),
                       ("unit", "625"), ("unit", 10)):
        with pytest.raises(PreconditionError) as info:
            padic_from_json({**good, key: value})
        assert info.value.path == (key,), (key, value)

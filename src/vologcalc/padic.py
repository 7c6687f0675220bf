"""Truncated p-adic arithmetic over Q_p extended by a formal branch parameter.

Scalars live in Q_p[L], polynomials in a formal variable L standing for the
undetermined value of log(p) (equivalently log(pi), since the uniformizer is
fixed to p throughout), of degree at most the constant LAMBDA_CAP = 4 (a
higher degree raises LambdaDegreeOverflow, as a Laurent term's log-degree
past `loglaurent.LOG_CAP` does). The Iwasawa logarithm of z decomposes as

    log(z) = log(<u>) + v(z) * L,      u = z / p^v(z),

with <u> the 1-unit part of u after splitting off the Teichmueller root of
unity. log(<u>) is computed as log(u^(p-1)) / (p-1), so no root of unity is
ever formed, and the series is bounded in integers: no float enters.
Differentiating in L and evaluating at L = 0 therefore recovers the
valuation v(z) exactly; that identity is the backbone of everything downstream.

Values are immutable `Record`s (slotted, compared field by field); every
operation returns a fresh object and tracks precision explicitly: a nonzero
number is known modulo p^(val + prec) and arithmetic never claims more
digits than its inputs support.

Two rules keep the branch ring cheap. Scaling by an exact int or Fraction q
(`UniversalScalar * q`, `/ q`) lifts q once and writes each nonzero
coefficient as (val + v_p(q), unit * unit(q) mod p^prec, prec): it keeps
relative precision and costs v_p(q) in absolute precision. A zero
coefficient becomes `zero(p, 1)`, the scalar's rule for a zero until a
finite-precision zero model replaces it. And x - y is one signed sum
(`__add__` with sign -1), never a negation followed by a sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import LambdaDegreeOverflow, PreconditionError
from .jsonutil import int_from_json, items, member, members, to_fraction
from .record import Record, setfield

DEFAULT_PRECISION = 20
LAMBDA_CAP = 4


# Miller-Rabin on the prime bases 2..41 decides primality exactly below
# PRIMALITY_BOUND (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(_PRIME_BASES)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

# Units are written to JSON as decimal strings, and Python converts at most
# 4,300 digits by default; keeping every exponent e of p read from JSON to
# |e| * bits(p) <= MAX_EXPONENT_BITS bounds p^|e| by 2^14000 (4,215 digits).
MAX_EXPONENT_BITS = 14_000


def _is_prime(n: int) -> bool:
    """Exact for n < PRIMALITY_BOUND; the bases are tried as divisors first."""
    if n <= 41:
        return n in _SMALL_PRIMES
    if any(n % b == 0 for b in _PRIME_BASES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def max_exponent(p: int) -> int:
    """Largest |e| for an exponent of p (val, prec, window) read from JSON."""
    return MAX_EXPONENT_BITS // p.bit_length()


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicNumber(Record):
    """p^val * unit known modulo p^(val + prec); unit == 0 encodes the
    distinguished exact zero (valuation +infinity by convention)."""

    __slots__ = _fields = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int):
        setfield(self, "p", p)
        setfield(self, "val", val)
        setfield(self, "unit", unit)
        setfield(self, "prec", prec)

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self):
        """Valuation with the infinite sentinel on the distinguished zero."""
        return math.inf if self.unit == 0 else self.val

    @property
    def abs_prec(self):
        """Absolute precision: the value is known modulo p^abs_prec."""
        return math.inf if self.unit == 0 else self.val + self.prec

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(p: int, prec: int = DEFAULT_PRECISION) -> "PadicNumber":
        return PadicNumber(p, 0, 0, prec)

    def _check(self, other: "PadicNumber"):
        if self.p != other.p:
            raise PreconditionError(
                f"mixed primes {self.p} and {other.p} in one operation"
            )

    def _coerce(self, other, rel_prec=None, abs_prec=None):
        """Lift an exact int/Fraction to this prime at the requested precision."""
        if isinstance(other, PadicNumber):
            return other
        if isinstance(other, int):
            other = Fraction(other)
        if not isinstance(other, Fraction):
            return None
        if rel_prec is not None:
            return from_fraction(self.p, other, rel_prec)
        return from_fraction_abs(self.p, other, abs_prec)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other, sign=1):
        """self + sign * other for sign +-1: `-` is this one signed sum too,
        so one place decides the precision of a sum."""
        if not isinstance(other, PadicNumber):
            other = self._coerce(other, abs_prec=self.prec if self.is_zero else self.abs_prec)
            if other is None:
                return NotImplemented
        self._check(other)
        if not self.unit:
            return other if sign == 1 else -other
        if not other.unit:
            return self
        m = min(self.val + self.prec, other.val + other.prec)
        v0 = min(self.val, other.val)
        k = m - v0
        pk = self.p**k
        r = (
            self.unit * self.p ** (self.val - v0)
            + sign * other.unit * self.p ** (other.val - v0)
        ) % pk
        if r == 0:
            return PadicNumber.zero(self.p, k)
        w = _vp(r, self.p)
        val = v0 + w
        return PadicNumber(self.p, val, r // self.p**w, m - val)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.val, self.p**self.prec - self.unit, self.prec)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other, rel_prec=self.prec)
        if other is None:
            return NotImplemented
        self._check(other)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(self.p, min(self.prec, other.prec))
        prec = min(self.prec, other.prec)
        return PadicNumber(
            self.p,
            self.val + other.val,
            (self.unit * other.unit) % self.p**prec,
            prec,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other, rel_prec=self.prec)
        if other is None:
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the distinguished p-adic zero")
        if self.is_zero:
            return PadicNumber.zero(self.p, min(self.prec, other.prec))
        prec = min(self.prec, other.prec)
        inv = pow(other.unit, -1, self.p**prec)
        return PadicNumber(
            self.p,
            self.val - other.val,
            (self.unit * inv) % self.p**prec,
            prec,
        )

    def __rtruediv__(self, other):
        lifted = self._coerce(other, rel_prec=self.prec)
        if lifted is None:
            return NotImplemented
        return lifted.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("zero to a non-positive power")
            return self
        unit = pow(self.unit, k, self.p**self.prec)
        return PadicNumber(self.p, self.val * k, unit, self.prec)

    def scale_p_power(self, k: int) -> "PadicNumber":
        """Exact multiplication by p^k (k of either sign): shifts the valuation."""
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.val + k, self.unit, self.prec)

    def __eq__(self, other):
        ref = self.prec if self.is_zero else self.abs_prec
        other = self._coerce(other, abs_prec=ref)
        if other is None:
            return NotImplemented
        if self.p != other.p:
            return False
        if self.is_zero and other.is_zero:
            return True
        if self.is_zero or other.is_zero:
            return False
        m = min(self.abs_prec, other.abs_prec)
        if self.val != other.val:
            # values of different valuation can still agree mod p^m
            return self.val >= m and other.val >= m
        return (self.unit - other.unit) % self.p ** (m - self.val) == 0

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return f"O({self.p}^inf)"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"


def require_prime(p: int) -> int:
    """p itself; a PreconditionError if p is not prime, or too large for
    `_is_prime` to decide."""
    if p >= PRIMALITY_BOUND:
        raise PreconditionError(
            f"{p} is not below {PRIMALITY_BOUND}, the bound of the primality test"
        )
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return p


def make_padic(p: int, numerator: int, denominator: int, precision: int) -> PadicNumber:
    """p-adic expansion of numerator/denominator to `precision` relative digits;
    the three numbers are read as `int_from_json` reads them."""
    require_prime(p)
    numerator, denominator, precision = map(int_from_json, (numerator, denominator, precision))
    if denominator == 0:
        raise PreconditionError("zero denominator")
    if precision < 1:
        raise PreconditionError("precision must be at least 1")
    return from_fraction(p, Fraction(numerator, denominator), precision)


def from_fraction(p: int, q: Fraction, precision: int) -> PadicNumber:
    """Same as make_padic but assumes p prime and q in lowest terms."""
    if q == 0:
        return PadicNumber.zero(p, precision)
    a = _vp(q.numerator, p)
    b = _vp(q.denominator, p)
    num_unit = q.numerator // p**a
    den_unit = q.denominator // p**b
    modulus = p**precision
    unit = num_unit * pow(den_unit, -1, modulus) % modulus
    return PadicNumber(p, a - b, unit, precision)


def from_fraction_abs(p: int, q: Fraction, abs_precision: int) -> PadicNumber:
    """Fraction to p-adic with value known modulo p^abs_precision."""
    if q == 0:
        return PadicNumber.zero(p, max(1, abs_precision))
    v = _vp(q.numerator, p) - _vp(q.denominator, p)
    if v >= abs_precision:
        return PadicNumber.zero(p, max(1, abs_precision))
    return from_fraction(p, q, abs_precision - v)


# ---------------------------------------------------------------------------
# Polynomials in the branch parameter
# ---------------------------------------------------------------------------


class UniversalScalar(Record):
    """Element of Q_p[L]: coeffs[i] multiplies L^i, L the formal log(p).

    Degree is at most the constant LAMBDA_CAP: running past it raises rather
    than silently truncating. Dropping all L-terms is a ring homomorphism to
    PadicNumber; d/dL followed by evaluation at L = 0 is `derive_at_zero`.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        setfield(self, "coeffs", coeffs)

    @property
    def p(self) -> int:
        return self.coeffs[0].p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    @staticmethod
    def of(coeffs) -> "UniversalScalar":
        coeffs = list(coeffs)
        if not coeffs:
            raise PreconditionError("a scalar needs at least one coefficient")
        p = coeffs[0].p
        for c in coeffs:
            if c.p != p:
                raise PreconditionError("mixed primes inside one scalar")
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs.pop()
        if len(coeffs) - 1 > LAMBDA_CAP:
            raise LambdaDegreeOverflow(len(coeffs) - 1, LAMBDA_CAP)
        return UniversalScalar(tuple(coeffs))

    @staticmethod
    def constant(c: PadicNumber) -> "UniversalScalar":
        return UniversalScalar.of([c])

    def _ref_prec(self) -> int:
        precs = [c.prec for c in self.coeffs if not c.is_zero]
        return max(precs) if precs else self.coeffs[0].prec

    def _coerce(self, other):
        """Lift an int or Fraction as `PadicNumber.__add__` does, at the constant's
        absolute precision (at `_ref_prec` relative digits if it is the exact zero)."""
        if isinstance(other, UniversalScalar):
            return other
        if isinstance(other, (int, Fraction)):
            c = self.coeffs[0]
            if c.is_zero:
                other = c._coerce(other, rel_prec=self._ref_prec())
            else:
                other = c._coerce(other, abs_prec=c.abs_prec)
        if isinstance(other, PadicNumber):
            return UniversalScalar.of([other])
        return None

    def _padded(self, other: "UniversalScalar"):
        """Coefficient pairs of self and other, the shorter padded with zeros."""
        return zip_longest(self.coeffs, other.coeffs, fillvalue=PadicNumber.zero(self.p, 1))

    def __add__(self, other, sign=1):
        """self + sign * other, coefficient by coefficient (`PadicNumber.__add__`)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return UniversalScalar.of([x.__add__(y, sign) for x, y in self._padded(other)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return UniversalScalar.of([-c for c in self.coeffs])

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scaled(self, q, inverse=False):
        """self * q, or self / q if `inverse`, for an int or Fraction q: the
        convolution below with q lifted once at `_ref_prec` as its one
        coefficient, without building it. A nonzero coefficient keeps its
        relative precision, so it costs v_p(q) in absolute precision, and a
        unit factor leaves the last coefficient nonzero."""
        p, a0 = self.p, self.coeffs[0]
        if q == 0:
            return UniversalScalar((PadicNumber.zero(p, 1 if a0.is_zero else a0.prec),))
        c = from_fraction(p, q, self._ref_prec())
        v, u = (-c.val, pow(c.unit, -1, p**c.prec)) if inverse else (c.val, c.unit)
        return UniversalScalar(tuple([
            PadicNumber(p, a.val + v, a.unit * u % p**a.prec, a.prec) if a.unit
            else PadicNumber.zero(p, 1)
            for a in self.coeffs
        ]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        out = [PadicNumber.zero(p, 1) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniversalScalar.of(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Division by a constant (int, Fraction, or PadicNumber)."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a scalar by zero")
            return self._scaled(other, inverse=True)
        if isinstance(other, PadicNumber):
            return UniversalScalar.of([c / other for c in self.coeffs])
        return NotImplemented

    def scale_p_power(self, k: int) -> "UniversalScalar":
        return UniversalScalar.of([c.scale_p_power(k) for c in self.coeffs])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(x == y for x, y in self._padded(other))

    __hash__ = None

    def constant_term(self) -> PadicNumber:
        """Evaluation at L = 0 (drop all branch terms)."""
        return self.coeffs[0]

    def derivative(self) -> "UniversalScalar":
        """Formal d/dL."""
        if len(self.coeffs) == 1:
            return UniversalScalar.of([PadicNumber.zero(self.p, self.coeffs[0].prec)])
        return UniversalScalar.of([i * c for i, c in enumerate(self.coeffs) if i >= 1])

    def derive_at_zero(self) -> PadicNumber:
        """Coefficient of L^1: the branch derivative evaluated at L = 0."""
        if len(self.coeffs) > 1:
            return self.coeffs[1]
        return PadicNumber.zero(self.p, self.coeffs[0].prec)

    def specialize(self, c: PadicNumber) -> PadicNumber:
        """Evaluate at L = c; a ring homomorphism for fixed c."""
        acc = self.coeffs[-1]
        for k in range(len(self.coeffs) - 2, -1, -1):
            acc = acc * c + self.coeffs[k]
        return acc

    def __repr__(self):
        return "US[" + ", ".join(repr(c) for c in self.coeffs) + "]"


def derive_at_zero(x: UniversalScalar) -> PadicNumber:
    """Branch derivative at the reference branch; for x = iwasawa_log(z) this
    is exactly the valuation of z as a p-adic integer."""
    return x.derive_at_zero()


def lambda_scalar(p: int, prec: int = DEFAULT_PRECISION) -> UniversalScalar:
    """The formal branch parameter L itself."""
    return UniversalScalar.of([PadicNumber.zero(p, prec), make_padic(p, 1, 1, prec)])


def _one_unit_log(p: int, one_unit: int, abs_prec: int) -> PadicNumber:
    """log of a 1-unit via the alternating series, exact mod p^abs_prec.

    Truncation: the k-th term x^k/k has valuation >= k*v(x) - v_p(k) >=
    k*v(x) - floor(log2(k)), since p^v_p(k) <= k and p >= 2. With v(x) >= 1
    this bound does not decrease in k, so the series stops at the first k
    whose next term already has the bound >= abs_prec; floor(log2(k)) is
    k.bit_length() - 1, so the test is in integers.
    Representative error in x (known mod p^abs_prec) perturbs term k by
    valuation >= abs_prec + (k-1)*v(x) - v_p(k) >= abs_prec, so summing exact
    fractions of the representative is sound.
    """
    x = (one_unit - 1) % p**abs_prec
    if x == 0:
        return PadicNumber.zero(p, abs_prec)
    vx = _vp(x, p)
    k_stop = 1
    while (k_stop + 1) * vx - (k_stop + 1).bit_length() + 1 < abs_prec:
        k_stop += 1
    total = Fraction(0)
    power = 1
    for k in range(1, k_stop + 1):
        power *= x
        term = Fraction(power, k)
        total += term if k % 2 == 1 else -term
    return from_fraction_abs(p, total, abs_prec)


def iwasawa_log(z: PadicNumber) -> UniversalScalar:
    """Universal-branch logarithm: log(<u>) + v(z) * L for z = p^v(z) u.

    u = w<u> with w a (p-1)-st root of unity, so u^(p-1) = <u>^(p-1) is a
    1-unit. log is a homomorphism on 1-units, hence log(<u>) =
    log(u^(p-1)) / (p-1); p - 1 is a unit, so the division keeps every digit
    (for p = 2 it is log(u) itself). The 1-unit series is summed to the
    working precision, and the branch dependence sits entirely in the exact
    degree-1 coefficient v(z).
    """
    if z.is_zero:
        raise PreconditionError("logarithm of zero")
    p, prec = z.p, z.prec
    constant = _one_unit_log(p, pow(z.unit, p - 1, p**prec), prec) / (p - 1)
    return UniversalScalar.of([constant, make_padic(p, z.val, 1, prec)])


# ---------------------------------------------------------------------------
# Shared configuration
# ---------------------------------------------------------------------------


class PadicContext(Record):
    """Working prime and precision for one computation; the precision is
    read as `int_from_json` reads it."""

    __slots__ = _fields = ("p", "prec")

    def __init__(self, p: int, prec: int = DEFAULT_PRECISION):
        setfield(self, "p", p)
        setfield(self, "prec", int_from_json(prec))

    def zero(self) -> PadicNumber:
        return PadicNumber.zero(self.p, self.prec)

    def scalar(self, *coeff_fractions) -> UniversalScalar:
        """Scalar from exact rational coefficients, constant term first."""
        return UniversalScalar.of(
            [from_fraction(self.p, to_fraction(c), self.prec) for c in coeff_fractions]
        )

    def zero_scalar(self) -> UniversalScalar:
        return UniversalScalar.of([self.zero()])

    def lam(self) -> UniversalScalar:
        return lambda_scalar(self.p, self.prec)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def padic_to_json(x: PadicNumber) -> dict:
    return {"p": x.p, "val": x.val, "unit": str(x.unit), "prec": x.prec}


def padic_from_json(obj) -> PadicNumber:
    p, val, unit, prec = members(obj, ("p", "val", "unit", "prec"), int_from_json)
    require_prime(p)
    top = max_exponent(p)
    if not (-top <= val <= top and 1 <= prec <= top):
        # read again through the range checks, whose error names the field
        member(obj, "val", int_from_json, -top, top)
        member(obj, "prec", int_from_json, 1, top)
    if unit == 0:
        return PadicNumber.zero(p, prec)
    if not 0 < unit < p**prec or unit % p == 0:
        raise PreconditionError(f"{unit} is not a unit below {p}^{prec}", ("unit",))
    return PadicNumber(p, val, unit, prec)


def scalar_to_json(x: UniversalScalar) -> dict:
    return {"coeffs": [padic_to_json(c) for c in x.coeffs]}


def scalar_from_json(obj) -> UniversalScalar:
    return UniversalScalar.of(member(obj, "coeffs", items, padic_from_json))

"""Laurent series with log(z) terms on an oriented annulus.

A 1-form is written against dz/z, so an AnnulusForm is the coefficient family
a_k of sum a_k z^k dz/z on the window [-M, M]; its residue is a_0.
Primitives live in LogLaurentFunction: finitely many monomials z^k log(z)^n
with branch-polynomial coefficients and n at most the constant LOG_CAP = 4
(a higher degree raises LogDegreeOverflow). Only the formal series
structure is kept; no radii arithmetic (the annulus is normalized to
|pi| < |z| < 1).

One window rule: every form and function carries its Laurent window, and
terms of different windows never combine -- `+` and `*` of functions with
different windows raise "mismatched window configuration". Forms have no
`+`, so no rule ever picks the window of a sum.

The extended residue is defined by exactness reduction: z^k log^n z dz/z is
exact for n >= 1 (reduce via d(z^k log^n z / k), or d(log^{n+1} z/(n+1)) when
k = 0) and for n = 0, k != 0, so the residue functional reads off the (0, 0)
coefficient after the reduction and vanishes on every exact form. That makes
the local index <F, G> = res(F dG) antisymmetric.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LogDegreeOverflow, PreconditionError, WindowTruncation
from .jsonutil import entries, int_from_json, member
from .padic import PadicContext, PadicNumber, UniversalScalar, max_exponent, scalar_from_json
from .record import Record, setfield

DEFAULT_WINDOW = 12
LOG_CAP = 4


def _accumulate(out: dict, key, c) -> None:
    """out[key] += c, where an absent key counts as zero."""
    out[key] = out[key] + c if key in out else c


def _checked_terms(ctx: PadicContext, window: int, terms: dict, noun: str, logs: bool) -> dict:
    """`terms` less its zero coefficients. Each key is checked in turn, so the
    first bad key decides the error: its z-exponent lies in the window, its
    log-degree in [0, LOG_CAP] (a key is (k, n) if `logs`, else k with n = 0),
    and its coefficient has the context's prime."""
    clean = {}
    for key, c in terms.items():
        k, n = key if logs else (key, 0)
        if abs(k) > window:
            raise PreconditionError(f"{noun} z^{k} outside the window [-{window}, {window}]")
        if n > LOG_CAP:
            raise LogDegreeOverflow(n, LOG_CAP)
        if n < 0:
            raise PreconditionError("negative log-degree")
        if c.p != ctx.p:
            raise PreconditionError("coefficient prime differs from the context")
        if not c.is_zero:
            clean[key] = c
    return clean


def _same_terms(x: dict, y: dict, zero: UniversalScalar) -> bool:
    """Equality of two term dicts, an absent key counting as zero."""
    return all(x.get(key, zero) == y.get(key, zero) for key in x.keys() | y.keys())


class AnnulusForm(Record):
    """sum a_k z^k dz/z with finite support inside [-window, window]."""

    __slots__ = _fields = ("ctx", "coeffs", "window")

    def __init__(self, ctx: PadicContext, coeffs: dict, window: int = DEFAULT_WINDOW):
        setfield(self, "ctx", ctx)
        setfield(self, "coeffs", _checked_terms(ctx, window, coeffs, "coefficient at", False))
        setfield(self, "window", window)

    def coeff(self, k: int) -> UniversalScalar:
        return self.coeffs.get(k, self.ctx.zero_scalar())

    @property
    def residue(self) -> UniversalScalar:
        return self.coeff(0)

    def __eq__(self, other):
        if not isinstance(other, AnnulusForm):
            return NotImplemented
        return _same_terms(self.coeffs, other.coeffs, self.ctx.zero_scalar())

    __hash__ = None


class LogLaurentFunction(Record):
    """Finite sum of c_{k,n} z^k log(z)^n, c in the branch-polynomial ring.

    `truncated` records that a multiplication dropped terms outside the
    Laurent window, in which coefficients other than those actually retained
    can no longer be trusted.
    """

    __slots__ = _fields = ("ctx", "terms", "window", "truncated")

    def __init__(
        self, ctx: PadicContext, terms: dict, window: int = DEFAULT_WINDOW, truncated: bool = False
    ):
        setfield(self, "ctx", ctx)
        setfield(self, "terms", _checked_terms(ctx, window, terms, "term", True))
        setfield(self, "window", window)
        setfield(self, "truncated", truncated)

    def _config(self, other):
        if self.window != other.window:
            raise PreconditionError("mismatched window configuration")

    def __add__(self, other):
        self._config(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return LogLaurentFunction(self.ctx, out, self.window, self.truncated or other.truncated)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s) -> "LogLaurentFunction":
        return LogLaurentFunction(
            self.ctx, {key: c * s for key, c in self.terms.items()}, self.window, self.truncated
        )

    def __mul__(self, other):
        self._config(other)
        out = {}
        dropped = False
        for (k1, n1), c1 in self.terms.items():
            for (k2, n2), c2 in other.terms.items():
                k, n = k1 + k2, n1 + n2
                if abs(k) > self.window:
                    dropped = True
                    continue
                _accumulate(out, (k, n), c1 * c2)
        return LogLaurentFunction(
            self.ctx, out, self.window, self.truncated or other.truncated or dropped
        )

    def __eq__(self, other):
        if not isinstance(other, LogLaurentFunction):
            return NotImplemented
        return _same_terms(self.terms, other.terms, self.ctx.zero_scalar())

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.terms


def integrate(omega: AnnulusForm, constant: UniversalScalar) -> LogLaurentFunction:
    """Term-by-term primitive: sum_{k != 0} (a_k / k) z^k + a_0 log z + C.

    Dividing a_k by k costs v_p(k) digits of absolute precision in that
    coefficient; the precision fields record the loss.
    """
    terms = {}
    for k, a in omega.coeffs.items():
        if k == 0:
            terms[(0, 1)] = a
        else:
            terms[(k, 0)] = a / k
    if not constant.is_zero:
        terms[(0, 0)] = terms.get((0, 0), omega.ctx.zero_scalar()) + constant
    return LogLaurentFunction(omega.ctx, terms, omega.window)


def differential(f: LogLaurentFunction) -> LogLaurentFunction:
    """dF divided by dz/z: z^k log^n z contributes k z^k log^n + n z^k log^{n-1}."""
    out = {}
    for (k, n), c in f.terms.items():
        if k != 0:
            _accumulate(out, (k, n), c * k)
        if n != 0:
            _accumulate(out, (k, n - 1), c * n)
    return LogLaurentFunction(f.ctx, out, f.window, f.truncated)


def as_form(f: LogLaurentFunction) -> AnnulusForm:
    """Reinterpret a log-free function as the dz/z-coefficient family."""
    coeffs = {}
    for (k, n), c in f.terms.items():
        if n != 0:
            raise PreconditionError("log terms have no AnnulusForm counterpart")
        coeffs[k] = c
    return AnnulusForm(f.ctx, coeffs, f.window)


def form_as_function(omega: AnnulusForm) -> LogLaurentFunction:
    return LogLaurentFunction(omega.ctx, {(k, 0): a for k, a in omega.coeffs.items()}, omega.window)


def extended_residue(eta: LogLaurentFunction) -> UniversalScalar:
    """Residue of eta dz/z extended to kill every exact form.

    Iteratively rewrites each (k, n != 0) term: for k != 0 it differs from an
    exact form by -(n/k) z^k log^{n-1} z dz/z; for k = 0 it is exact outright.
    What remains is a plain Laurent form whose residue is the (0, 0)
    coefficient.
    """
    work = dict(eta.terms)
    while True:
        key = next((key for key in work if key[1] != 0), None)
        if key is None:
            break
        k, n = key
        c = work.pop(key)
        if k == 0:
            continue  # d(log^{n+1} z / (n+1)) - exact, no residue
        _accumulate(work, (k, n - 1), c * Fraction(-n, k))
    return work.get((0, 0), eta.ctx.zero_scalar())


def local_index(f: LogLaurentFunction, g: LogLaurentFunction) -> UniversalScalar:
    """Pairing res(F dG) of two annulus primitives.

    local_index(F, G) + local_index(G, F) equals the z^0 log(z)-coefficient
    of F*G, so the pairing is antisymmetric exactly when the constant terms
    of F and G do not meet the other's log coefficients (for instance on
    primitives with zero constant term, or whenever log terms sit at Laurent
    slots with no opposite-degree partner). That residual term is not a
    defect: pairing a constant C against G gives C * res(dG), which is what
    branch-derivative computations consume.

    Products falling outside the Laurent window never carry k = 0, so the
    residue survives internal truncation; inputs that were themselves already
    truncated are rejected because their missing terms could contribute.
    """
    if f.truncated or g.truncated:
        raise WindowTruncation(
            "confidence in the k = 0 coefficient lost: input already truncated"
        )
    return extended_residue(f * differential(g))


def flip_coordinate(omega: AnnulusForm) -> AnnulusForm:
    """Rewrite in the opposite orientation via z = p/w: negates the residue.

    a_k z^k dz/z becomes -a_k p^k w^{-k} dw/w; powers of p shift valuations
    exactly, no precision is spent.
    """
    out = {}
    for k, a in omega.coeffs.items():
        out[-k] = (-a).scale_p_power(k)
    return AnnulusForm(omega.ctx, out, omega.window)


# -- JSON ---------------------------------------------------------------------


def form_from_json(obj, ctx: PadicContext) -> AnnulusForm:
    """A form {"coeffs": {"k": scalar}, "window": M}; both keys are optional."""
    coeffs = member(obj, "coeffs", entries, int_from_json, scalar_from_json, default={})
    window = member(obj, "window", int_from_json, 0, max_exponent(ctx.p), default=DEFAULT_WINDOW)
    return AnnulusForm(ctx, coeffs, window)


def cross_annulus_jump(
    omega: AnnulusForm, c1: UniversalScalar, c2: UniversalScalar
) -> UniversalScalar:
    """Difference of the two one-sided primitives across the annulus.

    C1 is the constant of the primitive continued from the outer (|z| -> 1)
    side, C2 from the inner side; the mismatch is C1 - C2 + a_0 * L with L
    the branch parameter, because the two sides disagree exactly by
    a_0 * (log z + log w) = a_0 * log p.

    L is exact, so a_0 * L only shifts a_0's coefficients up one power of L
    and keeps every digit they have.
    """
    shifted = UniversalScalar.of([PadicNumber.zero(omega.ctx.p, 1), *omega.residue.coeffs])
    return c1 - c2 + shifted

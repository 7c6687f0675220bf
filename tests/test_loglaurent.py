import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vologcalc.errors import (
    LambdaDegreeOverflow,
    LogDegreeOverflow,
    ParseError,
    PreconditionError,
    WindowTruncation,
)
from vologcalc.loglaurent import (
    AnnulusForm,
    LogLaurentFunction,
    as_form,
    cross_annulus_jump,
    differential,
    extended_residue,
    flip_coordinate,
    form_as_function,
    integrate,
    local_index,
)
from vologcalc.padic import (
    LAMBDA_CAP,
    PadicContext,
    PadicNumber,
    UniversalScalar,
    _vp,
    make_padic,
    scalar_to_json,
)

CTX = PadicContext(5, 12)


def form(coeffs, window=12):
    return AnnulusForm(CTX, {k: CTX.scalar(v) for k, v in coeffs.items()}, window)


def llf(terms, window=12):
    return LogLaurentFunction(CTX, {key: CTX.scalar(v) for key, v in terms.items()}, window)


def test_integrate_examples():
    # dz/z integrates to log z
    assert integrate(form({0: 1}), CTX.zero_scalar()) == llf({(0, 1): 1})
    # power rule
    assert integrate(form({2: 1}), CTX.zero_scalar()) == llf({(2, 0): Fraction(1, 2)})
    # term by term with a constant
    got = integrate(form({-1: 1, 0: 1, 1: 1}), CTX.scalar(7))
    want = llf({(-1, 0): -1, (0, 1): 1, (1, 0): 1, (0, 0): 7})
    assert got == want


def test_differential_inverts_integrate():
    rng = random.Random(5)
    for _ in range(30):
        coeffs = {
            k: rng.randint(-9, 9)
            for k in rng.sample(range(-8, 9), rng.randint(1, 6))
        }
        omega = form(coeffs)
        F = integrate(omega, CTX.scalar(rng.randint(-5, 5)))
        assert as_form(differential(F)) == omega


def test_extended_residue_examples():
    # classical residue: the k = 0 coefficient of f dz/z
    assert extended_residue(llf({(0, 0): 1})) == CTX.scalar(1)
    # log z dz/z is exact
    assert extended_residue(llf({(0, 1): 1})).is_zero
    # log(z) z^3 dz/z reduces through an exact form and a residue-free tail
    assert extended_residue(llf({(3, 1): 1})).is_zero


def test_extended_residue_kills_exact_forms_brute():
    # oracle route: symbolic differentiation of log^2 z / 2 gives log z dz/z
    half_log_sq = llf({(0, 2): Fraction(1, 2)})
    assert differential(half_log_sq) == llf({(0, 1): 1})
    assert extended_residue(differential(half_log_sq)).is_zero


def _index_domain_terms(rng):
    """Random terms on which the index identities are exact.

    Laurent tails live at 1 <= |k| <= 6 with constants at (0, 0); log and
    log^2 terms sit at 7 <= |k| <= 12 or at (0, 2), so no constant ever meets
    a log coefficient at opposite Laurent degree. res(d(log z)) = res(dz/z)
    is 1, so without this separation neither identity can hold.
    """
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.choice([k for k in range(-6, 7)]), 0)] = rng.randint(-9, 9)
    for _ in range(rng.randint(0, 3)):
        k = rng.choice([k for k in range(-12, 13) if abs(k) >= 7])
        terms[(k, rng.randint(1, 2))] = rng.randint(-9, 9)
    if rng.random() < 0.5:
        terms[(0, 2)] = rng.randint(-9, 9)
    return terms


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_residue_of_differential_vanishes(data):
    # d(H) has residue equal to the (0, 1)-coefficient of H, so the
    # exactness identity is quantified over functions without that term.
    n_terms = data.draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        k = data.draw(st.integers(-6, 6))
        n = data.draw(st.integers(0, 2))
        if (k, n) == (0, 1):
            continue
        v = data.draw(st.integers(-9, 9))
        terms[(k, n)] = terms.get((k, n), 0) + v
    if not terms:
        terms = {(1, 0): 1}
    F = llf(terms)
    assert extended_residue(differential(F)).is_zero


def test_residue_of_d_log_is_one():
    # the boundary of the exactness convention: log z is not an admissible
    # primitive for the reduction, d(log z) = dz/z keeps residue 1
    assert extended_residue(differential(llf({(0, 1): 1}))) == CTX.scalar(1)


def test_local_index_examples():
    assert local_index(llf({(-1, 0): 1}), llf({(1, 0): 1})) == CTX.scalar(1)
    lg = llf({(0, 1): 1})
    assert local_index(lg, lg).is_zero
    assert local_index(lg, llf({(1, 0): 1})).is_zero


def test_local_index_antisymmetry_random():
    rng = random.Random(17)
    for _ in range(40):
        F = llf(_index_domain_terms(rng))
        G = llf(_index_domain_terms(rng))
        s = local_index(F, G) + local_index(G, F)
        assert s.is_zero


def test_local_index_antisymmetric_on_primitives():
    # primitives of annulus forms with zero constant term are the natural
    # inputs to the pairing; on those antisymmetry is unconditional
    rng = random.Random(23)
    for _ in range(40):
        def primitive():
            coeffs = {
                k: CTX.scalar(rng.randint(-9, 9))
                for k in rng.sample(range(-6, 7), rng.randint(1, 5))
            }
            return integrate(AnnulusForm(CTX, coeffs, 12), CTX.zero_scalar())

        F, G = primitive(), primitive()
        assert (local_index(F, G) + local_index(G, F)).is_zero


def test_local_index_constant_pairs_to_residue():
    # the defect of antisymmetry carries the content: <C, G> = C * res(dG)
    C = llf({(0, 0): 7})
    G = llf({(0, 1): 3, (2, 0): 5})
    assert local_index(C, G) == CTX.scalar(21)
    assert local_index(G, C).is_zero


def test_local_index_rejects_truncated_inputs():
    big = llf({(12, 0): 1, (1, 0): 1})
    prod = big * big  # drops z^24 and z^13 terms
    assert prod.truncated
    with pytest.raises(WindowTruncation):
        local_index(prod, big)


def test_flip_coordinate_examples():
    assert flip_coordinate(form({0: 1})) == form({0: -1})
    # z dz/z -> -p w^{-1} dw/w
    got = flip_coordinate(form({1: 1}))
    assert got.coeff(-1) == CTX.scalar(-5)
    assert flip_coordinate(form({})) == form({})
    # involution and residue negation
    rng = random.Random(3)
    for _ in range(20):
        omega = form({k: rng.randint(-9, 9) for k in range(-4, 5)})
        assert flip_coordinate(flip_coordinate(omega)) == omega
        assert flip_coordinate(omega).residue == CTX.zero_scalar() - omega.residue


def test_cross_annulus_jump_examples():
    lam = CTX.lam()
    assert cross_annulus_jump(form({0: 1}), CTX.zero_scalar(), CTX.zero_scalar()) == lam
    # second kind: no residue, no branch term
    c1, c2 = CTX.scalar(9), CTX.scalar(4)
    assert cross_annulus_jump(form({2: 3}), c1, c2) == CTX.scalar(5)
    got = cross_annulus_jump(form({0: 3}), CTX.scalar(1), CTX.scalar(4))
    assert got == CTX.scalar(-3, 3)


def test_cross_annulus_jump_keeps_the_residue_digits():
    """L is exact, so the jump's branch terms are a_0's coefficients, digit
    for digit, whatever the context precision; a_0 at the degree cap still
    overflows."""
    ctx = PadicContext(5, 20)
    a0 = UniversalScalar.of([make_padic(5, 7, 3, 40), make_padic(5, 10, 1, 40)])
    got = cross_annulus_jump(AnnulusForm(ctx, {0: a0}), ctx.scalar(2), ctx.scalar(1))
    assert scalar_to_json(got) == scalar_to_json(UniversalScalar.of([ctx.scalar(1).coeffs[0], *a0.coeffs]))
    assert got.coeffs[1].abs_prec == 40 and got.coeffs[2].abs_prec == 41
    top = UniversalScalar.of([make_padic(5, 1, 1, 40)] * (LAMBDA_CAP + 1))
    with pytest.raises(LambdaDegreeOverflow):
        cross_annulus_jump(AnnulusForm(ctx, {0: top}), ctx.zero_scalar(), ctx.zero_scalar())


def test_branch_derivative_of_index_is_log_coefficient():
    # F = L + a log z + s1, G = b log z + s2 with plain Laurent tails:
    # the branch derivative of <F, G> is exactly b.
    rng = random.Random(11)
    for _ in range(30):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        terms_f = {
            (k, 0): CTX.scalar(rng.randint(-5, 5))
            for k in rng.sample([k for k in range(-5, 6) if k], 3)
        }
        terms_f[(0, 0)] = CTX.lam()
        terms_f[(0, 1)] = CTX.scalar(a)
        F = LogLaurentFunction(CTX, terms_f)
        terms_g = {
            (k, 0): CTX.scalar(rng.randint(-5, 5))
            for k in rng.sample([k for k in range(-5, 6) if k], 3)
        }
        terms_g[(0, 1)] = CTX.scalar(b)
        G = LogLaurentFunction(CTX, terms_g)
        idx = local_index(F, G)
        assert idx.derive_at_zero() == b


def test_log_degree_cap():
    with pytest.raises(LogDegreeOverflow, match="log-degree 5 exceeds the configured cap 4"):
        llf({(0, 3): 1}) * llf({(0, 2): 1})  # degree 5 > LOG_CAP = 4
    with pytest.raises(PreconditionError):
        llf({(13, 0): 1})


def test_functions_of_different_windows_never_combine():
    narrow, wide = llf({(1, 0): 1}, window=6), llf({(1, 0): 1}, window=12)
    for combine in (lambda f, g: f + g, lambda f, g: f * g):
        for f, g in ((narrow, wide), (wide, narrow)):
            with pytest.raises(PreconditionError, match="^mismatched window configuration$"):
                combine(f, g)


def test_form_as_function_round_trip():
    omega = form({-2: 3, 0: 1, 4: -2})
    assert as_form(form_as_function(omega)) == omega
    with pytest.raises(PreconditionError):
        as_form(llf({(0, 1): 1}))


def test_form_from_json_decodes_literal_json():
    from vologcalc.loglaurent import DEFAULT_WINDOW, form_from_json

    three = {"coeffs": [{"p": 5, "val": 0, "unit": "3", "prec": 12}]}
    one_plus_l = {"coeffs": [{"p": 5, "val": 0, "unit": 1, "prec": "12"},
                             {"p": 5, "val": 0, "unit": "1", "prec": 12}]}
    omega = form_from_json({"coeffs": {"-2": three, "0": one_plus_l}, "window": 4}, CTX)
    assert omega == AnnulusForm(CTX, {-2: CTX.scalar(3), 0: CTX.scalar(1, 1)}, 4)
    assert omega.window == 4
    empty = form_from_json({}, CTX)
    assert empty.coeffs == {} and empty.window == DEFAULT_WINDOW
    for bad, exc, path in (
        ({"coeffs": {"1.5": three}}, ParseError, ("coeffs", "1.5")),
        ({"coeffs": {"0": {"coeffs": [{**three["coeffs"][0], "val": 0.0}]}}}, ParseError,
         ("coeffs", "0", "coeffs", 0, "val")),
        ({"window": 12.0}, ParseError, ("window",)),
        ({"window": -1}, PreconditionError, ("window",)),
        ({"coeffs": {"5": three}, "window": 4}, PreconditionError, ()),
    ):
        with pytest.raises(exc) as info:
            form_from_json(bad, CTX)
        assert info.value.path == path, bad


# -- each operation loses only its inherent digits ------------------------------


@st.composite
def inexact(draw, p):
    """p^val * unit at a random relative precision; one in eight is the exact
    zero."""
    prec = draw(st.integers(1, 20))
    if draw(st.integers(0, 7)) == 0:
        return PadicNumber.zero(p, prec)
    unit = draw(st.integers(0, p ** (prec - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return PadicNumber(p, draw(st.integers(-4, 4)), unit, prec)


@st.composite
def scalars(draw, p):
    return UniversalScalar.of(draw(st.lists(inexact(p), min_size=1, max_size=3)))


def abs_precs(x):
    """Absolute precision of the L^0 .. L^5 coefficients of a p-adic number or
    a scalar; an absent coefficient is exact."""
    coeffs = x.coeffs if isinstance(x, UniversalScalar) else (x,)
    return [c.abs_prec for c in coeffs] + [math.inf] * (6 - len(coeffs))


def at_least(got, bound) -> bool:
    return all(g >= b for g, b in zip(abs_precs(got), bound))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ring_operations_lose_only_their_inherent_digits(data):
    """+ and - keep the least absolute precision, an exact operand costs
    nothing, and multiplying by an exact integer c adds v_p(c)."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    kind = data.draw(st.sampled_from((inexact, scalars)))
    x, y = data.draw(kind(p)), data.draw(kind(p))
    c = data.draw(st.integers(-(10**4), 10**4).filter(bool))
    q = Fraction(c, data.draw(st.integers(1, 50)))
    px, py = abs_precs(x), abs_precs(y)
    for got in (x + y, x - y):
        assert at_least(got, [min(a, b) for a, b in zip(px, py)]), (x, y, got)
    # the exact zero plus a rational is a lift of the rational, so where x's
    # constant is that zero only its other coefficients are bounded
    constant = x.coeffs[0] if kind is scalars else x
    bound = [-math.inf] + px[1:] if constant.is_zero else px
    for got in (x + q, q + x, x - q):
        assert at_least(got, bound), (x, q, got)
    v = _vp(c, p)
    for got in (x * c, c * x):
        assert at_least(got, [a + v for a in px]), (x, c, got)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_calculus_loses_only_its_inherent_digits(data):
    """`integrate` loses v_p(k) on z^k and nothing on the constant,
    `flip_coordinate` shifts each absolute precision by exactly k and keeps
    the relative one, and `cross_annulus_jump` keeps the least absolute
    precision of its inputs."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PadicContext(p, 20)
    omega = AnnulusForm(ctx, data.draw(st.dictionaries(st.integers(-6, 6), scalars(p), max_size=4)))
    c1, c2 = data.draw(scalars(p)), data.draw(scalars(p))
    F = integrate(omega, c1)
    for k, a in omega.coeffs.items():
        got = F.terms[(k, 0) if k else (0, 1)]
        assert at_least(got, [b - (_vp(k, p) if k else 0) for b in abs_precs(a)]), (k, a, got)
    if not c1.is_zero:
        assert at_least(F.terms[(0, 0)], abs_precs(c1))
    flipped = flip_coordinate(omega)
    for k, a in omega.coeffs.items():
        got = flipped.coeffs[-k]
        assert abs_precs(got) == [b + k for b in abs_precs(a)], (k, a, got)
        assert [x.prec for x in got.coeffs] == [x.prec for x in a.coeffs]
    jump = cross_annulus_jump(omega, c1, c2)
    shifted = [math.inf] + abs_precs(omega.residue)
    bound = [min(s, t, r) for s, t, r in zip(abs_precs(c1), abs_precs(c2), shifted)]
    assert at_least(jump, bound), (omega.residue, c1, c2, jump)

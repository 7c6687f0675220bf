"""Filtered Frobenius-monodromy modules over Q_p and their extension classes.

A module D carries a linear Frobenius phi, a nilpotent monodromy N with
N phi = p phi N, a basis-aligned weight grading (N lowers weight by 2, phi
preserves it, phi - 1 invertible away from weight 0), an F^0 subspace of the
filtered side D_K, and the comparison map I between the two sides at the
reference uniformizer p. Changing uniformizer composes I with exp(l N),
l the logarithm of the ratio. `validate` leans on two implications of the
grading: N lowering weight by 2 makes N nilpotent, and phi preserving the
weights is invertible exactly when each weight block of it is.

An extension class of the unit object by D is a cocycle triple (x, y, z)
with N x + (1 - p phi) y = 0, x, y in D, z in D_K modulo F^0, taken up to
the differential w -> ((phi - 1) w, N w, -I w). Normalizing kills x and
splits the class into a filtration-valued component beta (the z after
normalization) and a discrete component rho (the weight -2 part of the
normalized y). The headline identity, checked by synderi_check, is that
the branch derivative of beta is -I(rho).

All linear algebra is exact and runs in integers: each module scales its
matrices once, products are integer dot products divided once per entry, and
eliminations clear denominators first. x and y are rational; only z may hold
p-adic entries (a logarithm), and only such a z takes the generic reduction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import PreconditionError
from .jsonutil import frac_from_json, int_from_json, items, member, to_fraction
from .linalg import (
    gauss_solve,
    identity,
    int_mat_vec,
    is_invertible,
    reduce_mod_span,
    row_echelon_basis,
    scaled,
    scaled_mat_vec,
)
from .padic import PadicNumber, iwasawa_log, make_padic, require_prime
from .record import Record, setfield


def _frac_vector(v):
    return tuple(map(to_fraction, v))


def _frac_matrix(rows):
    return tuple(map(_frac_vector, rows))


def _check_shapes(what: str, n: int, f0, **matrices):
    for name, m in matrices.items():
        if len(m) != n or any(len(row) != n for row in m):
            raise PreconditionError(f"{what} {name} is not {n} x {n}")
    if any(len(v) != n for v in f0):
        raise PreconditionError(f"{what} F^0 vector is not of length {n}")


class FpnModule(Record):
    """Dimension-n module: matrices act on column vectors in the weight basis.

    Made once per module: the echelon form of F^0, and the integer forms
    (`linalg.scaled`) of phi, N, I and the projection onto D_K / F^0."""

    _fields = ("p", "phi", "N", "weights", "f0", "iso")
    __slots__ = _fields + ("_f0_echelon", "_scaled")

    def __init__(self, p: int, phi: tuple, N: tuple, weights: tuple, f0: tuple, iso: tuple):
        super().__init__(require_prime(int_from_json(p)), phi, N, weights, f0, iso)
        _check_shapes("module", self.dim, self.f0, phi=self.phi, N=self.N, iso=self.iso)
        rows, pivots = row_echelon_basis(self.f0)
        # v -> v - sum_k v[p_k] R_k: each reduced row R_k vanishes at the other pivots
        at, n = dict(zip(pivots, rows)), self.dim
        proj = [[int(i == j) - (at[j][i] if j in at else 0) for j in range(n)] for i in range(n)]
        forms = {name: scaled(getattr(self, name)) for name in ("phi", "N", "iso")}
        setfield(self, "_f0_echelon", (rows, pivots))
        setfield(self, "_scaled", {**forms, "f0": scaled(proj)})

    @property
    def dim(self) -> int:
        return len(self.weights)

    def weight_indices(self, k: int):
        return [i for i, w in enumerate(self.weights) if w == k]

    def weight_set(self):
        return sorted(set(self.weights))

    def project_weight(self, vec, k: int):
        return tuple(vec[i] if self.weights[i] == k else Fraction(0) for i in range(self.dim))

    def apply(self, name: str, vec):
        """phi, N, iso or (for "f0") the projection mod F^0, times rational vec."""
        return scaled_mat_vec(self._scaled[name], vec)

    def reduce_mod_f0(self, vec):
        """Canonical coset representative in D_K / F^0: one scaled product
        for a rational vec, the row-by-row loop if an entry is p-adic."""
        if all(type(v) is Fraction or type(v) is int for v in vec):
            return self.apply("f0", vec)
        return reduce_mod_span(tuple(vec), *self._f0_echelon)


def _block(matrix, rows, cols, shift=0):
    """The rows x cols submatrix of `matrix`, less `shift` on the diagonal."""
    return [[matrix[i][j] - (shift if i == j else 0) for j in cols] for i in rows]


def _monodromy_series(M: FpnModule, y):
    """(j, I N^(j-1) y) for j = 1, 2, ..., up to the last j with N^(j-1) y != 0.

    Every uniformizer change is a finite sum over this series. A nilpotent N
    has N^dim = 0, so a nonzero N^dim y shows N is not nilpotent."""
    j = 1
    while any(v != 0 for v in y):
        if j > M.dim:
            raise PreconditionError("monodromy operator is not nilpotent")
        yield j, M.apply("iso", y)
        y = M.apply("N", y)
        j += 1


def module(p, phi, N, weights, f0=(), iso=None) -> FpnModule:
    n = len(weights)
    iso = identity(n) if iso is None else _frac_matrix(iso)
    return FpnModule(
        p,
        _frac_matrix(phi),
        _frac_matrix(N),
        tuple(map(int_from_json, weights)),
        _frac_matrix(f0),
        iso,
    )


def validate(M: FpnModule):
    """Check the structural identities; None if all hold, else the first
    violation with indices.

    Two identities follow from earlier checks and cost nothing more: N is
    nilpotent because it lowers weight by 2 (N^k lowers it by 2k, and there
    are at most dim weights), and phi, which preserves the grading, is
    invertible exactly when each of its weight blocks is."""
    n, p = M.dim, M.p
    (dn, nz), (dphi, phiz) = M._scaled["N"], M._scaled["phi"]
    # column j of (d_N N)(d_phi phi) and of (d_phi phi)(d_N N)
    nphi = [int_mat_vec(nz, col) for col in zip(*phiz)]
    phin = [int_mat_vec(phiz, col) for col in zip(*nz)]
    for i in range(n):
        for j in range(n):
            if nphi[j][i] != p * phin[j][i]:
                return (
                    f"monodromy-Frobenius relation fails at entry ({i}, {j}): "
                    f"(N phi) = {Fraction(nphi[j][i], dn * dphi)}, "
                    f"p (phi N) = {Fraction(p * phin[j][i], dn * dphi)}"
                )
    for j in range(n):
        for i in range(n):
            if nz[i][j] != 0 and M.weights[i] != M.weights[j] - 2:
                return (
                    f"monodromy does not lower weight by 2 at entry ({i}, {j}): "
                    f"maps weight {M.weights[j]} into weight {M.weights[i]}"
                )
    for j in range(n):
        for i in range(n):
            if phiz[i][j] != 0 and M.weights[i] != M.weights[j]:
                return f"Frobenius does not preserve the weight grading at ({i}, {j})"
    blocks = [(k, M.weight_indices(k)) for k in M.weight_set()]
    for k, idx in blocks:
        if k != 0 and not is_invertible(_block(phiz, idx, idx, dphi)):
            return f"phi - 1 is singular on the weight {k} summand"
    if not all(is_invertible(_block(phiz, idx, idx)) for _, idx in blocks):
        return "Frobenius is singular"
    if not is_invertible(M._scaled["iso"][1]):
        return "comparison map is singular"
    return None


class StTriple(Record):
    """Cocycle representative (x, y, z); z is a coset representative mod F^0.

    x and y are read as rationals, and so is z except for its PadicNumber
    entries (a logarithm); a float or a bool raises ParseError."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: tuple, y: tuple, z: tuple):
        x, y = _frac_vector(x), _frac_vector(y)
        super().__init__(x, y, tuple(v if isinstance(v, PadicNumber) else to_fraction(v) for v in z))


def check_cocycle(M: FpnModule, t: StTriple):
    """PreconditionError unless x, y and z each have M's dimension and
    N x + (1 - p phi) y = 0."""
    if not len(t.x) == len(t.y) == len(t.z) == M.dim:
        raise PreconditionError(
            f"class vectors x, y, z must each have the module dimension {M.dim}"
        )
    lhs = M.apply("N", t.x)
    y_part = [t.y[i] - M.p * v for i, v in enumerate(M.apply("phi", t.y))]
    for i in range(M.dim):
        if lhs[i] + y_part[i] != 0:
            raise PreconditionError(
                f"cocycle condition fails in coordinate {i}: N x + (1 - p phi) y != 0"
            )


def first_differential(M: FpnModule, w) -> StTriple:
    """Image of w in D under the first differential ((phi-1)w, Nw, -Iw)."""
    w = tuple(w)
    phiw = M.apply("phi", w)
    return StTriple(
        tuple(phiw[i] - w[i] for i in range(M.dim)),
        M.apply("N", w),
        M.reduce_mod_f0(tuple(-v for v in M.apply("iso", w))),
    )


def add_triples(M: FpnModule, a: StTriple, b: StTriple, sign=1) -> StTriple:
    return StTriple(
        tuple(x + sign * y for x, y in zip(a.x, b.x)),
        tuple(x + sign * y for x, y in zip(a.y, b.y)),
        M.reduce_mod_f0(tuple(x + sign * y for x, y in zip(a.z, b.z))),
    )


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


class FpnExtension(Record):
    """Extension module D' of the unit object by base, in a basis whose first
    n coordinates span the base and whose last coordinate maps to 1."""

    __slots__ = _fields = ("base", "phi", "N", "iso", "f0")

    def __init__(self, base: FpnModule, phi: tuple, N: tuple, iso: tuple, f0: tuple):
        super().__init__(base, phi, N, iso, f0)
        n = base.dim
        _check_shapes("extension", n + 1, f0, phi=phi, N=N, iso=iso)
        for name, big, small, last in (
            ("phi", phi, base.phi, 1),
            ("N", N, base.N, 0),
            ("iso", iso, base.iso, 1),
        ):
            for j in range(n):
                if big[n][j] != 0:
                    raise PreconditionError(
                        f"extension {name} does not kill the base in the quotient row"
                    )
                for i in range(n):
                    if big[i][j] != small[i][j]:
                        raise PreconditionError(
                            f"extension {name} does not restrict to the base at ({i}, {j})"
                        )
            if big[n][n] != last:
                raise PreconditionError(
                    f"extension {name} acts on the quotient by {big[n][n]}, expected {last}"
                )


def extension(base: FpnModule, phi, N, iso=None, f0=()) -> FpnExtension:
    iso = identity(base.dim + 1) if iso is None else _frac_matrix(iso)
    return FpnExtension(
        base,
        _frac_matrix(phi),
        _frac_matrix(N),
        iso,
        _frac_matrix(f0),
    )


def ext_to_triple(ext: FpnExtension, A, B) -> StTriple:
    """Cocycle of an extension from lifts A (of 1 in D') and B (of 1 in F^0 D'_K):
    ((phi - 1) A, N A, B - I A), projected to the base coordinates.

    Changing A by a base vector w moves the result by the first differential
    of w; that identity is asserted on a probe vector before returning.
    """
    base = ext.base
    n = base.dim
    A = _frac_vector(A)
    B = _frac_vector(B)
    if A[n] != 1:
        raise PreconditionError("A does not lift 1 in the quotient")
    if B[n] != 1:
        raise PreconditionError("B does not lift 1 in the quotient")
    if any(v != 0 for v in reduce_mod_span(B, *row_echelon_basis(ext.f0))):
        raise PreconditionError("B is not in F^0 of the extension")

    phi, N, iso = scaled(ext.phi), scaled(ext.N), scaled(ext.iso)

    def triple_for(lift):
        phiA = scaled_mat_vec(phi, lift)
        x = tuple(phiA[i] - lift[i] for i in range(n))
        y = scaled_mat_vec(N, lift)[:n]
        ia = scaled_mat_vec(iso, lift)
        z = tuple(B[i] - ia[i] for i in range(n))
        return StTriple(x, tuple(y), base.reduce_mod_f0(z))

    result = triple_for(A)
    probe = tuple(Fraction(1) for _ in range(n)) + (Fraction(0),)
    shifted = triple_for(tuple(a + w for a, w in zip(A, probe)))
    expected = add_triples(base, result, first_differential(base, probe[:n]))
    if not (shifted.x == expected.x and shifted.y == expected.y and shifted.z == expected.z):
        raise PreconditionError(
            "extension data is inconsistent: shifting the lift does not act by the differential"
        )
    check_cocycle(base, result)
    return result


# ---------------------------------------------------------------------------
# Normal forms and the derivative identity
# ---------------------------------------------------------------------------


class NormalForm(Record):
    __slots__ = _fields = ("triple", "beta", "rho", "case")


def _solve_weight_blocks(M: FpnModule, x) -> list:
    """w with (phi - 1) w = x blockwise on the nonzero weights; the weight-0
    component of x must vanish (callers guarantee it by case analysis)."""
    w = [Fraction(0)] * M.dim
    dphi, phiz = M._scaled["phi"]
    for k in M.weight_set():
        if k == 0:
            continue
        idx = M.weight_indices(k)
        sol = gauss_solve(
            _block(phiz, idx, idx, dphi),
            [dphi * x[i] for i in idx],
            f"phi - 1 is singular on the weight {k} summand",
        )
        for i, v in zip(idx, sol):
            w[i] = v
    return w


def normalize_class(M: FpnModule, t: StTriple) -> NormalForm:
    """Reduce a cocycle to x = 0 and split off (beta, rho).

    Case 1 (no weight-0 summand): subtract the differential of
    w = sum over k != 0 of (phi - 1)^{-1} x_k; beta is the resulting z,
    rho the weight -2 projection of the resulting y.

    Case 2 (N iso from weight 0 to weight -2): additionally kill y through a
    weight-0 preimage; the cocycle condition then forces x = 0 and y = 0, so
    rho = 0 and beta is the resulting z.

    Both components are constant on cohomology classes: adding a differential
    moves (w, y, z) coherently.
    """
    check_cocycle(M, t)
    idx0 = M.weight_indices(0)
    case = 1 if not idx0 else 2
    w = _solve_weight_blocks(M, t.x)
    if case == 2:
        unsupported = (
            "unsupported module: weight-0 part nonzero and monodromy is not an "
            "isomorphism onto weight -2"
        )
        idx2 = M.weight_indices(-2)
        if len(idx0) != len(idx2):
            raise PreconditionError(unsupported)
        # kill the weight -2 part of y left after the first correction
        nw = M.apply("N", w)
        sol = gauss_solve(_block(M.N, idx2, idx0), [t.y[i] - nw[i] for i in idx2], unsupported)
        for i, v in zip(idx0, sol):
            w[i] = w[i] + v
    w = tuple(w)
    norm = add_triples(M, t, first_differential(M, w), sign=-1)
    if any(v != 0 for v in norm.x):
        raise PreconditionError("normalization failed to kill the x component")
    if case == 2 and any(v != 0 for v in norm.y):
        raise PreconditionError(
            "cocycle not reducible: y survives the weight-0 correction"
        )
    # in case 2 norm.y is zero, so rho is too
    return NormalForm(norm, norm.z, M.project_weight(norm.y, -2), case)


def change_uniformizer_class(t: StTriple, ell, M: FpnModule) -> StTriple:
    """Effect on a triple of moving the comparison map to I o exp(ell N):
    z picks up -sum_{j >= 1} ell^j / j! * I N^{j-1} y; the exponential
    truncates at the nilpotency index, so this is exact."""
    check_cocycle(M, t)
    ell = to_fraction(ell)
    z = list(t.z)
    for j, iv in _monodromy_series(M, t.y):
        coeff = ell**j / factorial(j)
        z = [a - coeff * b for a, b in zip(z, iv)]
    return StTriple(t.x, t.y, M.reduce_mod_f0(tuple(z)))


def twist_uniformizer(M: FpnModule, ell) -> FpnModule:
    """The same module with the comparison map at the shifted uniformizer:
    column k of I exp(ell N) is sum_{j >= 1} ell^(j-1) / (j-1)! * I N^(j-1) e_k."""
    ell = to_fraction(ell)
    n = M.dim
    columns = []
    for e in identity(n):
        col = [Fraction(0)] * n
        for j, iv in _monodromy_series(M, e):
            coeff = ell ** (j - 1) / factorial(j - 1)
            col = [c + coeff * v for c, v in zip(col, iv)]
        columns.append(col)
    return FpnModule(M.p, M.phi, M.N, M.weights, M.f0, tuple(zip(*columns)))


class SynderiWitness(Record):
    __slots__ = _fields = ("ok", "derivative", "minus_iso_rho", "beta_poly", "normal_form")


def synderi_check(M: FpnModule, t: StTriple) -> SynderiWitness:
    """Branch derivative of the filtration component against -I(rho).

    beta of the uniformizer-shifted class is a polynomial in the shift
    parameter: coefficient j >= 1 is (-1/j!) I N^{j-1} applied to the
    normalized y, reduced mod F^0 (both the triple and the normalizing
    differential move, and their shifts combine into the normalized y). The
    check compares the degree-1 coefficient with -I(rho) and returns both,
    plus the whole polynomial and the normal form it checked, for inspection.
    """
    nf = normalize_class(M, t)
    coeffs = [nf.beta]
    for j, iv in _monodromy_series(M, nf.triple.y):
        coeffs.append(
            M.reduce_mod_f0(tuple(Fraction(-1, factorial(j)) * v for v in iv))
        )
    while len(coeffs) > 1 and all(v == 0 for v in coeffs[-1]):
        coeffs.pop()
    if len(coeffs) == 1:
        derivative = tuple(Fraction(0) for _ in range(M.dim))
    else:
        derivative = coeffs[1]
    minus_iso_rho = M.reduce_mod_f0(tuple(-v for v in M.apply("iso", nf.rho)))
    ok = all(a == b for a, b in zip(derivative, minus_iso_rho))
    return SynderiWitness(ok, derivative, minus_iso_rho, tuple(coeffs), nf)


# ---------------------------------------------------------------------------
# The multiplicative-group model
# ---------------------------------------------------------------------------


def kummer_module(p: int) -> FpnModule:
    """One-dimensional weight -2 module with phi = 1/p: the home of classes
    of units under (log, valuation)."""
    return module(p, [[Fraction(1, p)]], [[0]], [-2])


def kummer_extension(p: int, beta, nu: int) -> tuple:
    """Extension encoding an element of valuation nu and logarithm beta,
    with the lifts (A, B) realizing it; feed to ext_to_triple."""
    beta = to_fraction(beta)
    base = kummer_module(p)
    ext = extension(
        base,
        phi=[[Fraction(1, p), 0], [0, 1]],
        N=[[0, nu], [0, 0]],
        f0=[[beta, 1]],
    )
    A = (Fraction(0), Fraction(1))
    B = (beta, Fraction(1))
    return ext, A, B


def kummer_class_from_value(p: int, num: int, den: int, prec: int) -> tuple:
    """Module and cocycle for an actual nonzero rational value in Q_p: the
    filtration slot carries the reference-branch logarithm as a p-adic
    number, the discrete slot the valuation."""
    value = make_padic(p, num, den, prec)
    log_value = iwasawa_log(value)
    base = kummer_module(p)
    t = StTriple(
        (Fraction(0),),
        (Fraction(value.val),),
        (log_value.constant_term(),),
    )
    return base, t


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _vector_from_json(value, n: int | None = None) -> tuple:
    return tuple(items(value, frac_from_json, length=n))


def _matrix_from_json(value, n: int) -> list:
    return items(value, _vector_from_json, n, length=n)


def module_from_json(obj) -> FpnModule:
    p = require_prime(member(obj, "p", int_from_json))
    weights = member(obj, "weights", items, int_from_json)
    n = len(weights)
    return module(
        p,
        member(obj, "phi", _matrix_from_json, n),
        member(obj, "N", _matrix_from_json, n),
        weights,
        member(obj, "f0", items, _vector_from_json, n, default=[]),
        member(obj, "iso", _matrix_from_json, n, default=None),
    )


def triple_from_json(obj) -> StTriple:
    return StTriple(*(member(obj, key, _vector_from_json) for key in ("x", "y", "z")))

import random
from fractions import Fraction
from math import factorial

import pytest

from perfbench import oracle
from vologcalc.errors import ParseError, PreconditionError
from vologcalc.fpnmod import (
    FpnModule,
    StTriple,
    add_triples,
    change_uniformizer_class,
    check_cocycle,
    ext_to_triple,
    extension,
    first_differential,
    kummer_class_from_value,
    kummer_extension,
    kummer_module,
    module,
    module_from_json,
    normalize_class,
    synderi_check,
    triple_from_json,
    twist_uniformizer,
    validate,
)
from vologcalc.linalg import is_invertible
from vologcalc.padic import iwasawa_log, make_padic

from .oracles import dense_mat_vec, dense_mul, reduce_mod_span_reference, validate_reference


def F(*args):
    return Fraction(*args)


# ---------------------------------------------------------------------------
# randomized generator for valid modules and cocycles
# ---------------------------------------------------------------------------


def _random_invertible(rng, d, avoid_eigene=()):
    """Small integer matrix, invertible, with m - c*I invertible for each c."""
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if not is_invertible(m):
            continue
        ok = True
        for c in avoid_eigene:
            shifted = [[m[i][j] - (c if i == j else 0) for j in range(d)] for i in range(d)]
            if not is_invertible(shifted):
                ok = False
                break
        if ok:
            return m


def random_case1_module(rng, p=5, max_dim=8):
    """Weights exclude 0; weight -2 carries phi = (1/p) * identity so the
    kernel of 1 - p phi is the whole -2 block; an odd chain supplies nonzero
    monodromy. (p phi - 1) is kept invertible away from -2 so normalized y
    lands in weight -2 exactly."""
    d2 = rng.randint(1, 2)
    chain_len = rng.randint(0, 2)
    chain_dim = rng.randint(1, 2) if chain_len else 0
    total = d2 + chain_len * chain_dim
    while total > max_dim:
        chain_len -= 1
        total = d2 + chain_len * chain_dim
    weights = [-2] * d2
    phi_blocks = [[[F(1, p) if i == j else F(0) for j in range(d2)] for i in range(d2)]]
    n_entries = []
    top = _random_invertible(rng, chain_dim, avoid_eigene=(1, F(1, p))) if chain_len else None
    chain_phis = []
    offset = d2
    for level in range(chain_len):
        w = 1 - 2 * level  # 1, -1, -3, ... all nonzero, never -2... (level 1 -> -1)
        weights.extend([w] * chain_dim)
        if level == 0:
            blk = top
        else:
            prev = chain_phis[-1]
            blk = [[v / p for v in row] for row in prev]
            # N is the identity between consecutive chain levels
            for i in range(chain_dim):
                n_entries.append((offset + i, offset - chain_dim + i))
        chain_phis.append(blk)
        phi_blocks.append(blk)
        offset += chain_dim
    n = len(weights)
    phi = [[F(0)] * n for _ in range(n)]
    pos = 0
    for blk in phi_blocks:
        d = len(blk)
        for i in range(d):
            for j in range(d):
                phi[pos + i][pos + j] = blk[i][j]
        pos += d
    N = [[F(0)] * n for _ in range(n)]
    for i, j in n_entries:
        N[i][j] = F(1)
    f0 = []
    if rng.random() < 0.6:
        f0 = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, max(1, n // 2)))]
        f0 = [v for v in f0 if any(x != 0 for x in v)]
    iso = _random_invertible(rng, n)
    return module(p, phi, N, weights, f0, iso)


def random_cocycle(rng, M: FpnModule) -> StTriple:
    """x random; y solved blockwise from the cocycle condition, plus a free
    kernel element supported in weight -2."""
    n, p = M.dim, M.p
    x = [F(rng.randint(-4, 4)) for _ in range(n)]
    nx = dense_mat_vec(M.N, x)
    y = [F(0)] * n
    for k in M.weight_set():
        idx = M.weight_indices(k)
        rhs = [-nx[i] for i in idx]
        block = [
            [(1 if i == j else 0) - p * M.phi[i][j] for j in idx] for i in idx
        ]
        if is_invertible(block):
            from vologcalc.linalg import gauss_solve

            sol = gauss_solve(block, rhs)
            for i, v in zip(idx, sol):
                y[i] = v
        else:
            # 1 - p phi vanishes identically on the -2 block by construction
            assert k == -2 and all(v == 0 for v in rhs)
            for i in idx:
                y[i] = F(rng.randint(-4, 4))
    z = tuple(F(rng.randint(-4, 4)) for _ in range(n))
    t = StTriple(tuple(x), tuple(y), M.reduce_mod_f0(z))
    check_cocycle(M, t)
    return t


def random_case2_module(rng, p=5):
    """Weights {0, -2} with N an isomorphism between them."""
    d = rng.randint(1, 3)
    while True:
        phi0 = _random_invertible(rng, d, avoid_eigene=(1, F(1, p), F(p)))
        nblk = _random_invertible(rng, d)
        # phi on weight -2 forced by the commutation rule
        from vologcalc.linalg import gauss_solve

        ninv = [gauss_solve(nblk, [F(1) if i == j else F(0) for i in range(d)]) for j in range(d)]
        ninv = [list(col) for col in zip(*ninv)]
        phi2 = [[v / p for v in row] for row in dense_mul(dense_mul(nblk, phi0), ninv)]
        shifted = [[phi2[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
        if is_invertible(shifted):
            break
    n = 2 * d
    weights = [0] * d + [-2] * d
    phi = [[F(0)] * n for _ in range(n)]
    N = [[F(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            phi[i][j] = phi0[i][j]
            phi[d + i][d + j] = phi2[i][j]
            N[d + i][j] = nblk[i][j]
    iso = _random_invertible(rng, n)
    f0 = [[F(rng.randint(-2, 2)) for _ in range(n)]] if rng.random() < 0.5 else []
    f0 = [v for v in f0 if any(x != 0 for x in v)]
    return module(p, phi, N, weights, f0, iso)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_examples():
    p = 5
    ok1 = module(p, [[F(1, p)]], [[0]], [-2])
    assert validate(ok1) is None

    ok2 = module(p, [[1, 0], [0, F(1, p)]], [[0, 0], [1, 0]], [0, -2])
    assert validate(ok2) is None

    bad = module(p, [[1, 0], [0, 1]], [[0, 0], [1, 0]], [0, -2])
    report = validate(bad)
    assert report is not None and "monodromy-Frobenius" in report


def test_validate_mutation_catches_each_invariant():
    rng = random.Random(4)
    for _ in range(20):
        M = random_case1_module(rng)
        assert validate(M) is None
        n = M.dim
        # perturb one phi entry off the weight grading if possible
        i = rng.randrange(n)
        j = rng.randrange(n)
        phi = [list(row) for row in M.phi]
        phi[i][j] += 1
        mutated = module(M.p, phi, M.N, M.weights, M.f0, M.iso)
        if M.weights[i] != M.weights[j]:
            assert validate(mutated) is not None


def test_validate_rejects_weight_shift_violation():
    # N raises weight here while still satisfying the commutation identity
    M = module(5, [[F(1, 25), 0], [0, F(1, 5)]], [[0, 1], [0, 0]], [0, -2])
    report = validate(M)
    assert report is not None and "weight" in report


def test_validate_rejects_non_nilpotent():
    M = module(5, [[F(1, 5)]], [[1]], [-2])
    report = validate(M)
    assert report is not None


VIOLATIONS = (
    "monodromy-Frobenius relation fails",
    "monodromy does not lower weight by 2",
    "Frobenius does not preserve the weight grading",
    "phi - 1 is singular",
    "Frobenius is singular",
    "comparison map is singular",
)


def _mutants(rng, M: FpnModule):
    """Copies of M, each aimed at one identity: a non-nilpotent N, a phi
    entry off the grading, a singular phi block, phi = 0 and a singular iso."""
    n = M.dim
    i, j = rng.randrange(n), rng.randrange(n)
    N = [list(row) for row in M.N]
    N[i][i] += 1
    yield module(M.p, M.phi, N, M.weights, M.f0, M.iso)
    others = [b for b in range(n) if M.weights[b] != M.weights[i]]
    if others:
        phi = [list(row) for row in M.phi]
        phi[i][rng.choice(others)] += 1
        yield module(M.p, phi, M.N, M.weights, M.f0, M.iso)
    phi = [list(row) for row in M.phi]
    for b in M.weight_indices(M.weights[i]):
        phi[i][b] = F(0)
    yield module(M.p, phi, M.N, M.weights, M.f0, M.iso)
    yield module(M.p, [[0] * n for _ in range(n)], M.N, M.weights, M.f0, M.iso)
    iso = [list(row) for row in M.iso]
    iso[j] = [F(0)] * n
    yield module(M.p, M.phi, M.N, M.weights, M.f0, iso)


def test_validate_agrees_with_reference():
    """The cheap validate() reports what the check with the nilpotency loop
    and the whole-matrix Frobenius test reports, on valid modules and on
    modules that break each identity."""
    rng = random.Random(47)
    seen = set()
    # N raising weight, and a non-nilpotent N, each with N phi = p phi N
    mutants = [
        module(5, [[F(1, 25), 0], [0, F(1, 5)]], [[0, 1], [0, 0]], [0, -2]),
        module(5, [[0, 0], [0, 0]], [[1, 0], [0, 1]], [0, -2]),
    ]
    for make in [random_case1_module] * 20 + [random_case2_module] * 10:
        M = make(rng)
        assert validate(M) is None and validate_reference(M) is None
        mutants += _mutants(rng, M)
    for bad in mutants:
        got, want = validate(bad), validate_reference(bad)
        assert (got is None) == (want is None), (bad, got, want)
        if want is not None and "not nilpotent" not in want:
            assert got == want
            seen.update(kind for kind in VIOLATIONS if want.startswith(kind))
    assert seen == set(VIOLATIONS)


def _mixed_vector(rng, n, density=0.6):
    """Entries with denominators from 1 to 36, about 1 - density of them zero."""
    return [
        F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 25, 36))) if rng.random() < density else F(0)
        for _ in range(n)
    ]


def _mixed_matrix(rng, n):
    """An n x n rational matrix with mixed denominators and some zero rows."""
    return [[F(0)] * n if rng.random() < 0.2 else _mixed_vector(rng, n) for _ in range(n)]


def _mixed_module(rng):
    """A module of dimension 0 to 8 that need not be valid: phi and iso
    random, N random or zero (so that N phi = p phi N holds), F^0 empty,
    random or of full rank."""
    n = rng.randint(0, 8)
    f0 = rng.choice([
        [],
        [_mixed_vector(rng, n) for _ in range(rng.randint(1, max(1, n)))],
        [[F(int(i == j)) + F(j, 7) * (i < j) for j in range(n)] for i in range(n)],
    ])
    N = _mixed_matrix(rng, n) if rng.random() < 0.5 else [[0] * n for _ in range(n)]
    weights = [rng.choice((-4, -2, 0, 2)) for _ in range(n)]
    return module(rng.choice((2, 3, 5, 7)), _mixed_matrix(rng, n), N, weights, f0, _mixed_matrix(rng, n))


def test_integer_products_agree_with_dense_fractions():
    """The scaled integer forms give what dense Fraction algebra gives: the
    product with phi, N and I, validate's checks (N phi = p phi N first) and
    the reduction mod F^0, on modules of dimension 0 to 8."""
    rng = random.Random(53)
    messages = set()
    for _ in range(300):
        M = _mixed_module(rng)
        for _ in range(3):
            v = _mixed_vector(rng, M.dim)
            for name in ("phi", "N", "iso"):
                assert list(M.apply(name, v)) == dense_mat_vec(getattr(M, name), v)
            reduced = M.reduce_mod_f0(v)
            assert list(reduced) == oracle.canonical_mod_span(v, M.f0)
            assert all(type(x) is Fraction for x in reduced)
        got = validate(M)
        assert got == validate_reference(M)
        messages.add(got.split(" at ")[0] if got else None)
        # the integer forms are a cache: equality, hash and repr do not see them
        fresh = module(M.p, M.phi, M.N, M.weights, M.f0, M.iso)
        assert M == fresh and hash(M) == hash(fresh) and repr(M) == repr(fresh)
        assert "_scaled" not in repr(M) and "_f0_echelon" not in repr(M)
    # the relation check both passes and fails, and later checks are reached
    assert {None, "monodromy-Frobenius relation fails", "Frobenius is singular"} <= messages


def test_padic_entries_keep_the_row_by_row_reduction():
    """A vector with a p-adic entry (a logarithm in z) is reduced mod F^0 by
    the generic loop: its values, digits and absolute precisions are those of
    the row-by-row reference."""
    rng = random.Random(59)
    for _ in range(60):
        M = _mixed_module(rng)
        if not M.dim:
            continue
        v = _mixed_vector(rng, M.dim)
        for i in rng.sample(range(M.dim), rng.randint(1, M.dim)):
            v[i] = make_padic(M.p, rng.randint(-50, 50) or 1, rng.choice((1, 3, 4)), rng.randint(3, 12))
        got, want = M.reduce_mod_f0(v), reduce_mod_span_reference(v, M.f0)
        assert [repr(x) for x in got] == [repr(x) for x in want]
        assert [getattr(x, "abs_prec", None) for x in got] == [getattr(x, "abs_prec", None) for x in want]


def test_module_reads_p_as_a_prime():
    for p in (0.5, 5.0, True):
        with pytest.raises(ParseError):
            module(p, [[F(1, 5)]], [[0]], [-2])
    with pytest.raises(PreconditionError, match="6 is not prime"):
        module(6, [[F(1, 5)]], [[0]], [-2])
    with pytest.raises(PreconditionError, match="4 is not prime"):
        kummer_module(4)
    assert module("5", [[F(1, 5)]], [[0]], [-2]).p == 5


def test_monodromy_series_stops_where_n_y_vanishes():
    """N y = 0 with N != 0: beta_poly stops after the degree-1 term, as the
    series run to the nilpotency index with its zero tail popped does."""
    p = 5
    q = F(1, p)
    # e0 -> e2 under N, e1 in its kernel; weight -2 carries phi = 1/p
    M = module(
        p,
        [[q, 0, 0], [0, q, 0], [0, 0, q * q]],
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
        [-2, -2, -4],
        iso=[[1, 2, 0], [0, 1, 3], [1, 0, 1]],
    )
    assert validate(M) is None
    for y, degree in (((F(0), F(3), F(0)), 1), ((F(2), F(3), F(0)), 2)):
        t = StTriple((F(0),) * 3, y, (F(1), F(0), F(0)))
        witness = synderi_check(M, t)
        assert witness.ok and len(witness.beta_poly) == degree + 1
        y_norm = witness.normal_form.triple.y
        full, power = [witness.normal_form.beta], y_norm
        for j in range(1, M.dim + 1):
            image = dense_mat_vec(M.iso, power)
            full.append(M.reduce_mod_f0(tuple(-v / factorial(j) for v in image)))
            power = dense_mat_vec(M.N, power)
        while all(v == 0 for v in full[-1]):
            full.pop()
        assert witness.beta_poly == tuple(full)
    # a nonzero N^dim y shows N is not nilpotent
    with pytest.raises(PreconditionError, match="not nilpotent"):
        synderi_check(module(p, [[q]], [[1]], [-2]), StTriple((F(0),), (F(1),), (F(0),)))


# ---------------------------------------------------------------------------
# extensions and triples
# ---------------------------------------------------------------------------


def test_ext_to_triple_split_extension():
    base = kummer_module(5)
    ext = extension(
        base, phi=[[F(1, 5), 0], [0, 1]], N=[[0, 0], [0, 0]], f0=[[0, 1]]
    )
    t = ext_to_triple(ext, (0, 1), (0, 1))
    assert t.x == (0,) and t.y == (0,) and t.z == (0,)


def test_ext_to_triple_kummer_model():
    ext, A, B = kummer_extension(5, beta=F(7, 2), nu=1)
    t = ext_to_triple(ext, A, B)
    assert t.x == (0,)
    assert t.y == (1,)
    assert t.z == (F(7, 2),)


def test_ext_to_triple_shift_by_w():
    # changing the lift moves the triple by the first differential
    ext, A, B = kummer_extension(5, beta=F(1), nu=2)
    base = ext.base
    t = ext_to_triple(ext, A, B)
    shifted = ext_to_triple(ext, (F(1), F(1)), B)
    diff = first_differential(base, (F(1),))
    assert diff.x == (F(1, 5) - 1,)
    assert diff.y == (0,)
    assert diff.z == (-1,)
    combined = add_triples(base, t, diff)
    assert shifted.x == combined.x and shifted.y == combined.y and shifted.z == combined.z


def test_ext_to_triple_rejects_bad_lifts():
    ext, A, B = kummer_extension(5, beta=F(0), nu=1)
    with pytest.raises(PreconditionError):
        ext_to_triple(ext, (0, 2), B)
    with pytest.raises(PreconditionError):
        ext_to_triple(ext, A, (5, 1))  # not in F^0


KUMMER_EXT = {"phi": [[F(1, 5), 0], [0, 1]], "N": [[0, 2], [0, 0]], "f0": [[3, 1]]}


@pytest.mark.parametrize(
    "build",
    [
        lambda: module(5, [[F(1, 5), 0]], [[0]], [-2]),
        lambda: module(5, [[F(1, 5)]], [[0], [0]], [-2]),
        lambda: module(5, [[F(1, 5)]], [[0]], [-2], iso=[[1, 0], [0, 1]]),
        lambda: module(5, [[F(1, 5)]], [[0]], [-2], f0=[[1, 2]]),
        lambda: extension(kummer_module(5), **{**KUMMER_EXT, "phi": [[F(1, 5), 0, 9], [0, 1]]}),
        lambda: extension(kummer_module(5), **{**KUMMER_EXT, "N": [[0, 2], [0, 0, 7]]}),
        lambda: extension(kummer_module(5), **KUMMER_EXT, iso=[[1, 0], [0]]),
        lambda: extension(kummer_module(5), **{**KUMMER_EXT, "f0": [[3, 1, 4]]}),
    ],
    ids=["module phi", "module N", "module iso", "module f0",
         "extension phi", "extension N", "extension iso", "extension f0"],
)
def test_library_constructors_check_shapes(build):
    with pytest.raises(PreconditionError):
        build()


def test_triple_entries_are_exact():
    """x and y are rational; z is too, unless it holds a p-adic logarithm."""
    for bad in ((0.5,), (True,)):
        for fields in ((bad, (0,), (0,)), ((0,), bad, (0,)), ((0,), (0,), bad)):
            with pytest.raises(ParseError):
                StTriple(*fields)
    t = StTriple((0,), ("1/2",), (3,))
    assert t.y == (F(1, 2),) and type(t.z[0]) is Fraction
    log = iwasawa_log(make_padic(5, 6, 1, 8)).constant_term()
    assert StTriple((0,), (1,), (log,)).z == (log,)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_normalize_kummer_model():
    ext, A, B = kummer_extension(7, beta=F(9, 4), nu=3)
    t = ext_to_triple(ext, A, B)
    nf = normalize_class(ext.base, t)
    assert nf.case == 1
    assert nf.beta == (F(9, 4),)
    assert nf.rho == (3,)


def test_normalize_kills_coboundaries():
    rng = random.Random(11)
    for _ in range(25):
        M = random_case1_module(rng)
        w = tuple(F(rng.randint(-4, 4)) for _ in range(M.dim))
        nf = normalize_class(M, first_differential(M, w))
        assert all(v == 0 for v in nf.beta)
        assert all(v == 0 for v in nf.rho)


def test_beta_rho_linear_and_class_invariant():
    rng = random.Random(13)
    for _ in range(25):
        M = random_case1_module(rng)
        t = random_cocycle(rng, M)
        w = tuple(F(rng.randint(-3, 3)) for _ in range(M.dim))
        moved = add_triples(M, t, first_differential(M, w))
        a, b = normalize_class(M, t), normalize_class(M, moved)
        assert a.beta == b.beta and a.rho == b.rho
        # additivity
        s = random_cocycle(rng, M)
        both = add_triples(M, t, s)
        nf_sum = normalize_class(M, both)
        nf_t, nf_s = normalize_class(M, t), normalize_class(M, s)
        assert nf_sum.beta == tuple(
            x + y for x, y in zip(nf_t.beta, nf_s.beta)
        ) or nf_sum.beta == M.reduce_mod_f0(tuple(x + y for x, y in zip(nf_t.beta, nf_s.beta)))
        assert nf_sum.rho == tuple(x + y for x, y in zip(nf_t.rho, nf_s.rho))


def test_normalize_case2():
    rng = random.Random(17)
    for _ in range(20):
        M = random_case2_module(rng)
        assert validate(M) is None
        t = random_cocycle(rng, M)
        nf = normalize_class(M, t)
        assert nf.case == 2
        assert all(v == 0 for v in nf.rho)
        assert all(v == 0 for v in nf.triple.x)
        assert all(v == 0 for v in nf.triple.y)


def test_normalize_unsupported_module():
    # weight 0 present but N not an isomorphism onto weight -2
    M = module(5, [[2, 0], [0, F(1, 5)]], [[0, 0], [0, 0]], [0, -2])
    assert validate(M) is None
    t = StTriple((F(0), F(0)), (F(0), F(0)), (F(0), F(0)))
    with pytest.raises(PreconditionError):
        normalize_class(M, t)


# ---------------------------------------------------------------------------
# uniformizer change and the derivative identity
# ---------------------------------------------------------------------------


def test_change_uniformizer_examples():
    ext, A, B = kummer_extension(5, beta=F(4), nu=1)
    t = ext_to_triple(ext, A, B)
    assert change_uniformizer_class(t, 0, ext.base) == t
    moved = change_uniformizer_class(t, F(3), ext.base)
    assert moved.z == (F(1),)  # beta - ell * nu
    # y = 0 leaves the triple alone
    still = StTriple((F(0),), (F(0),), (F(2),))
    assert change_uniformizer_class(still, F(9), ext.base) == still


def test_rho_is_branch_independent():
    rng = random.Random(23)
    for _ in range(15):
        M = random_case1_module(rng)
        t = random_cocycle(rng, M)
        moved = change_uniformizer_class(t, F(rng.randint(-3, 3)), M)
        assert normalize_class(M, moved).rho == normalize_class(M, t).rho


def test_synderi_kummer():
    ext, A, B = kummer_extension(5, beta=F(5, 3), nu=1)
    t = ext_to_triple(ext, A, B)
    witness = synderi_check(ext.base, t)
    assert witness.ok
    assert witness.derivative == (-1,)
    assert witness.minus_iso_rho == (-1,)


def test_synderi_on_coboundaries():
    rng = random.Random(29)
    M = random_case1_module(rng)
    w = tuple(F(rng.randint(-3, 3)) for _ in range(M.dim))
    witness = synderi_check(M, first_differential(M, w))
    assert witness.ok
    assert all(v == 0 for v in witness.derivative)


def test_synderi_randomized_case1():
    rng = random.Random(31)
    for _ in range(30):
        M = random_case1_module(rng)
        assert validate(M) is None
        t = random_cocycle(rng, M)
        assert synderi_check(M, t).ok


def test_synderi_case2_beta_branch_independent():
    rng = random.Random(37)
    for _ in range(15):
        M = random_case2_module(rng)
        t = random_cocycle(rng, M)
        witness = synderi_check(M, t)
        assert witness.ok
        assert all(all(v == 0 for v in c) for c in witness.beta_poly[1:])


def test_beta_poly_matches_twisted_normalization():
    # second route: numerically shift the uniformizer, renormalize inside
    # the twisted module, compare with the polynomial evaluation
    rng = random.Random(41)
    for _ in range(10):
        M = random_case1_module(rng)
        t = random_cocycle(rng, M)
        witness = synderi_check(M, t)
        for ell in (F(1), F(2), F(-1, 2)):
            twisted = twist_uniformizer(M, ell)
            moved = change_uniformizer_class(t, ell, M)
            beta_ell = normalize_class(twisted, moved).beta
            poly_val = [Fraction(0)] * M.dim
            for j, coeff in enumerate(witness.beta_poly):
                for i in range(M.dim):
                    poly_val[i] += coeff[i] * ell**j
            assert M.reduce_mod_f0(tuple(poly_val)) == tuple(beta_ell)


def test_regulator_shape_round_trip():
    # an actual value in Q_p: (beta, rho) = (reference-branch log, valuation)
    p = 5
    for num, den in ((50, 7), (3, 1), (7, 125), (-2, 5)):
        M, t = kummer_class_from_value(p, num, den, 16)
        nf = normalize_class(M, t)
        value = make_padic(p, num, den, 16)
        assert nf.rho == (Fraction(value.val),)
        assert nf.beta[0] == iwasawa_log(value).constant_term()
        assert synderi_check(M, t).ok


def test_module_and_triple_from_json_decode_literal_json():
    literal = {
        "p": 3, "weights": [0, "-2"],
        "phi": [["2", 0], ["1/3", "-5/7"]], "N": [["0", "0"], [1, "0"]],
        "iso": [["1", "1"], ["0", "1"]], "f0": [["1", "-1"]],
    }
    assert module_from_json(literal) == module(
        3, [[2, 0], [F(1, 3), F(-5, 7)]], [[0, 0], [1, 0]], [0, -2],
        f0=[[1, -1]], iso=[[1, 1], [0, 1]],
    )
    rng = random.Random(43)
    M = random_case2_module(rng)
    while not M.f0:
        M = random_case2_module(rng)
    obj = {
        "p": M.p, "weights": list(M.weights),
        "phi": [[str(v) for v in row] for row in M.phi],
        "N": [[str(v) for v in row] for row in M.N],
        "iso": [[str(v) for v in row] for row in M.iso],
        "f0": [[str(v) for v in vec] for vec in M.f0],
    }
    assert module_from_json(obj) == M
    t = random_cocycle(rng, M)
    assert triple_from_json({k: [str(v) for v in getattr(t, k)] for k in "xyz"}) == t
    # shape, type and primality failures name the offending value
    n = M.dim
    for key, value, exc, path in (
        ("phi", obj["phi"][:-1], ParseError, ("phi",)),
        ("iso", [row[:-1] for row in obj["iso"]], ParseError, ("iso", 0)),
        ("f0", [["0.5"] * n], ParseError, ("f0", 0, 0)),
        ("weights", [0.0] * n, ParseError, ("weights", 0)),
        ("p", 6, PreconditionError, ()),
        ("p", 5.7, ParseError, ("p",)),
    ):
        with pytest.raises(exc) as info:
            module_from_json({**obj, key: value})
        assert info.value.path == path, key
    with pytest.raises(ParseError) as info:
        triple_from_json({"x": ["1"], "y": [0.1], "z": ["7/2"]})
    assert info.value.path == ("y", 0)

"""Twisted polynomials: commutation rule, products, Drinfeld images."""

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.fields import base_field, embed
from drinfeld_deuring.grammar import parse
from drinfeld_deuring.modulus import PrimeModulus, t_poly_ring
from drinfeld_deuring.ore import OreContext, drinfeld_image, ore_apply, qpow
from drinfeld_deuring.poly import PolyRing


def test_commutation_rule():
    F4 = base_field(2).extension(2)
    ctx = OreContext(F4, 2)
    a = F4.gen
    tau_a = ctx.tau * ctx.op((a,))
    assert tau_a.coeffs == (F4.zero, a ** 2)
    # non-commutativity witness: a outside F_q
    a_tau = ctx.op((a,)) * ctx.tau
    assert tau_a != a_tau


def test_legendre_factorization():
    """(Delta*tau - gamma)(tau - 1) = Delta*tau^2 - (Delta+gamma)*tau + gamma."""
    F9 = base_field(3).extension(2)
    ctx = OreContext(F9, 3)
    gamma = F9.gen
    delta = F9.gen + F9.one
    left = ctx.op((-gamma, delta)) * ctx.op((-F9.one, F9.one))
    assert left.coeffs == (gamma, -(delta + gamma), delta)


def test_symbolic_delta_twist():
    """(Delta*tau)^2 = Delta^(1+q)*tau^2 with Delta symbolic."""
    F = base_field(3)
    D = PolyRing(F, "s")
    ctx = OreContext(D, 3)
    dt = ctx.op((D.zero, D.gen))
    sq = dt * dt
    assert sq.coeffs == (D.zero, D.zero, D.gen ** 4)


def test_ore_apply_additive():
    F8 = base_field(2).extension(3)
    ctx = OreContext(F8, 2)
    f = ctx.op((F8.one, F8.gen, F8.gen + F8.one))
    for x in F8.elements():
        for y in F8.elements():
            assert ore_apply(f, x + y) == ore_apply(f, x) + ore_apply(f, y)


def test_tau_minus_one_application():
    F9 = base_field(3).extension(2)
    ctx = OreContext(F9, 3)
    f = ctx.op((-F9.one, F9.one))
    for x in F9.elements():
        assert ore_apply(f, x) == x ** 3 - x


def test_psi_t_kills_one():
    """psi_T(1) = Delta - (Delta + gamma) + gamma = 0 for any Delta."""
    F16 = base_field(2).extension(2).extension(2)
    ctx = OreContext(F16, 2)
    gamma = embed(base_field(2).extension(2).gen, F16)
    for delta in F16.elements():
        if not delta:
            continue
        psi = ctx.op((gamma, delta + gamma, delta))
        assert ore_apply(psi, F16.one) == F16.zero


def test_drinfeld_image_generator_and_degree():
    F = base_field(2)
    kappa = PrimeModulus(parse("T^2 + T + 1", t_poly_ring(F))).kappa
    ctx = OreContext(kappa, 2)
    alpha = kappa.gen
    delta = alpha + kappa.one
    psi = ctx.op((alpha, delta + alpha, delta))
    R = t_poly_ring(F)
    img_t = drinfeld_image(ctx, psi, R.gen, scalar=lambda c: embed(c, kappa))
    assert img_t.coeffs == psi.coeffs
    img_t2 = drinfeld_image(ctx, psi, R.gen ** 2,
                            scalar=lambda c: embed(c, kappa))
    assert img_t2.degree == 4
    assert img_t2.coeff(0) == alpha ** 2


def test_image_homomorphism_property():
    """Images multiply: psi_{ab} = psi_a * psi_b, and images commute."""
    F = base_field(2)
    R = t_poly_ring(F)
    kappa = PrimeModulus(parse("T^3 + T + 1", R)).kappa
    ctx = OreContext(kappa, 2)
    alpha = kappa.gen
    psi = ctx.op((alpha, alpha ** 3 + alpha, alpha ** 3))
    sc = lambda c: embed(c, kappa)
    for sa, sb in (("T", "T + 1"), ("T^2 + T", "T + 1"), ("T^2", "T^3 + 1")):
        a, b = parse(sa, R), parse(sb, R)
        ia = drinfeld_image(ctx, psi, a, scalar=sc)
        ib = drinfeld_image(ctx, psi, b, scalar=sc)
        assert drinfeld_image(ctx, psi, a * b, scalar=sc) == ia * ib
        assert ia * ib == ib * ia


def test_qpow_structural():
    F = base_field(3)
    S = PolyRing(F, "s")
    f = S.poly([F.from_index(2), F.one])  # s + 2
    g = qpow(f, 3, 1)
    assert g == S.poly([F.from_index(2), F.zero, F.zero, F.one])  # s^3 + 2
    x = base_field(9).gen
    assert qpow(x, 3, 2) == x ** 81


def test_context_mismatch_rejected():
    c2 = OreContext(base_field(2), 2)
    c3 = OreContext(base_field(3), 3)
    with pytest.raises(DomainError):
        c2.tau * c3.tau


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_ore_mul_associative_distributive(xs, ys, zs):
    F9 = base_field(3).extension(2)
    ctx = OreContext(F9, 3)
    f = ctx.op([F9.from_index(i) for i in xs])
    g = ctx.op([F9.from_index(i) for i in ys])
    h = ctx.op([F9.from_index(i) for i in zs])
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def _coefficient_ring(over_polys):
    """F_9, or F_3[T] with index i read as the T-linear polynomial with
    base-3 digits of i."""
    F3 = base_field(3)
    if over_polys:
        A = t_poly_ring(F3)
        return A, lambda i: A.poly((i % 3, i // 3))
    F9 = F3.extension(2)
    return F9, F9.from_index


@settings(max_examples=40, deadline=None)
@given(st.booleans(),
       st.lists(st.integers(0, 8), max_size=4),
       st.lists(st.integers(0, 8), max_size=4),
       st.integers(0, 4))
def test_ore_kernel_agrees_with_poly(over_polys, xs, ys, e):
    K, elt = _coefficient_ring(over_polys)
    C = OreContext(K, 3)
    P = PolyRing(K, "s")
    f, g = C.op([elt(i) for i in xs]), C.op([elt(i) for i in ys])
    pf, pg = P.poly(f.coeffs), P.poly(g.coeffs)
    assert (f + g).coeffs == (pf + pg).coeffs
    assert (f - g).coeffs == (pf - pg).coeffs
    assert (-f).coeffs == (-pf).coeffs
    assert (f == g) == (pf == pg)
    product = C.one
    for _ in range(e):
        product = product * f
    assert f ** e == product
    with pytest.raises(DomainError):
        f ** -1


def test_ore_cross_context_and_commutative_only_ops():
    F9 = base_field(3).extension(2)
    f = OreContext(F9, 3).op((F9.gen, F9.one))
    g = OreContext(F9, 9).op((F9.gen, F9.one))
    assert f.coeffs == g.coeffs
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: g * f):
        with pytest.raises(DomainError):
            op()
    assert not f == g
    assert f != g
    # the twisted ring has no division or evaluation
    assert not callable(f)
    with pytest.raises(TypeError):
        divmod(f, f)

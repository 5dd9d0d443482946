"""Text grammar: canonical rendering and round-trip parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.errors import CapExceededError, DomainError
from drinfeld_deuring.fields import base_field
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.laurent import LaurentRing
from drinfeld_deuring.modulus import check_residue_degree, t_poly_ring
from drinfeld_deuring.poly import PolyRing


def test_render_descending_with_omitted_units():
    R = t_poly_ring(base_field(3))
    f = parse("2*T^3 + T + 1", R)
    assert render(f) == "2*T^3 + T + 1"
    assert render(R.one) == "1"
    assert render(R.zero) == "0"
    assert render(R.gen) == "T"


def test_render_extension_coefficients_parenthesized():
    F4 = base_field(4)
    S = PolyRing(F4, "s")
    f = S.poly([F4.one, F4.gen, F4.gen + F4.one])
    assert render(f) == "(x + 1)*s^2 + x*s + 1"


def test_parse_accepts_minus_and_whitespace():
    R = t_poly_ring(base_field(3))
    assert parse("T - 1", R) == parse("T + 2", R)
    assert parse("-T", R) == parse("2*T", R)
    assert parse("T^2+2*T+2", R) == parse("T^2 + 2*T + 2", R)


def test_parse_errors():
    R = t_poly_ring(base_field(2))
    for bad in ("", "T +", "Q + 1", "T^x", "(T + 1", "T 1"):
        with pytest.raises(DomainError):
            parse(bad, R)


def test_parse_bounds_the_nesting_of_parentheses():
    R = t_poly_ring(base_field(2))
    assert parse("(" * 50 + "T+1" + ")" * 50, R) == R.gen + 1
    assert parse("(" * 100 + "T+1" + ")" * 100, R) == R.gen + 1
    # past the bound a DomainError, not the interpreter's RecursionError
    for depth in (101, 3000):
        with pytest.raises(DomainError, match="nested"):
            parse("(" * depth + "T+1" + ")" * depth, R)


def test_parse_checks_degrees_before_building():
    R = t_poly_ring(base_field(2))
    seen = []

    def check(d):
        seen.append(d)
        check_residue_degree(2, d)

    f = parse("T^16 + (T^3 + 1)*T^5 + T^3*T^2 + 1", R, check_degree=check)
    assert f.degree == 16
    assert sorted(seen) == [2, 3, 3, 5, 5, 8, 16]
    for text in ("T^17 + 1", "T^8*T^9", "(T^4 + T)^5", "T^999999999999"):
        with pytest.raises(CapExceededError):
            parse(text, R, check_degree=check)
    # sums and negative powers are not products
    assert parse("T^16 - T^16 + T", R, check_degree=check) == R.gen
    with pytest.raises(DomainError):
        parse("T^-99999999999", R, check_degree=check)
    check_residue_degree(3, 10)
    with pytest.raises(CapExceededError):
        check_residue_degree(3, 11)


def test_laurent_negative_powers_roundtrip():
    L = LaurentRing(t_poly_ring(base_field(2)))
    v = L.shift(L.tring.one, 3)  # 1/T^3
    assert render(v) == "T^-3"
    w = parse("T^-3 + T^2", L)
    assert w == v + L.coerce(L.tring.gen ** 2)
    assert render(w) == "T^2 + T^-3"


def test_field_element_rendering():
    F9 = base_field(3).extension(2)
    els = {render(e) for e in F9.elements()}
    assert "0" in els and "1" in els and "b" in els and "2*b + 2" in els
    assert len(els) == 9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_roundtrip_property_f4(cs):
    F = base_field(4)
    R = PolyRing(F, "T")
    f = R.poly([F.from_index(c) for c in cs])
    assert parse(render(f), R) == f


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 124))
def test_roundtrip_element_f125(i):
    F = base_field(5).extension(3)
    x = F.from_index(i)
    # parse in the polynomial ring over F, then read off the constant
    R = PolyRing(F, "T")
    assert parse(render(x), R).constant_coeff() == x


def test_render_twisted_polynomials():
    from drinfeld_deuring.ore import OreContext

    F3 = base_field(3)
    F9 = F3.extension(2)
    A = t_poly_ring(F3)
    L = LaurentRing(A)
    cases = [
        (OreContext(F3, 3).op((1, 2, 0, 1)), "tau^3 + 2*tau + 1"),
        (OreContext(F9, 3).op((F9.gen, 0, F9.gen + 1)), "(b + 1)*tau^2 + b"),
        (OreContext(A, 3).op((A.gen, -(A.gen + 1), A.gen)),
         "T*tau^2 + (2*T + 2)*tau + T"),
        (OreContext(L, 3).op((L.shift(A.one, 2), 0, L.coerce(A.gen))),
         "T*tau^2 + T^-2"),
        (OreContext(F3, 3).zero, "0"),
        (OreContext(F3, 3).tau, "tau"),
    ]
    for op, text in cases:
        assert render(op) == text
        assert repr(op) == text


def test_render_multivariate_terms():
    # a parenthesised F_4 coefficient, a unit coefficient, a plain one and a
    # constant term, in graded lexicographic order
    from drinfeld_deuring.multipoly import MultiRing

    F4 = base_field(4)
    x = F4.gen
    R = MultiRing(F4, ("a", "b"))
    a, b = R.gens()
    assert render((x + 1) * a * b ** 2 + a * b + x * b + 1) == \
        "(x + 1)*a*b^2 + a*b + x*b + 1"
    assert render(x * a ** 3) == "x*a^3"
    assert render(a + x + 1) == "a + x + 1"
    assert render(R.const(x + 1)) == "x + 1"
    assert render(R.one) == "1"
    assert render(R.zero) == "0"

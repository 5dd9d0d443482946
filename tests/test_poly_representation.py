"""A polynomial over a finite field holds its kernel index tuple.

Every `Poly` operation must give the same index tuple, text and hash
whether its operands were built from elements (`PolyRing.poly`) or from
indices (`poly._from_indices`, placed by `step` or `exponents`), and the
same coefficients as the element arithmetic it replaced
(`reference.ElementPoly`) or, for the kernel's operations, as
`reference.ReferenceField`.  The data-model contract: equal polynomials
hash alike however they were built, a constant equals its coefficient, and
polynomials over two instances of one field compare as their elements do.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.fields import base_field, embed
from drinfeld_deuring.modulus import primes_of_degree
from drinfeld_deuring.poly import PolyRing, _from_indices, _indices, \
    is_irreducible, poly_gcd, powmod, roots_in_extension
from reference import ElementPoly, ReferenceField, trim


@functools.cache
def _field(name):
    """Prime fields; characteristic 2 on both sides of the 8/16-bit slot
    boundary (F_256 against F_512), and F_256 over F_4; odd extensions."""
    return {
        "F_2": lambda: base_field(2),
        "F_13": lambda: base_field(13),
        "F_251": lambda: base_field(251),
        "F_256": lambda: base_field(2).extension(8),
        "F_512": lambda: base_field(2).extension(9),
        "F_4^4": lambda: base_field(4).extension(4),
        "F_81": lambda: base_field(3).extension(4),
        "F_9^2": lambda: base_field(9).extension(2),
        "F_125": lambda: base_field(5).extension(3),
    }[name]()


_FIELDS = ("F_2", "F_13", "F_251", "F_256", "F_512", "F_4^4", "F_81",
           "F_9^2", "F_125")


def _index_lists(F, max_size=7):
    return st.lists(st.one_of(st.just(0), st.integers(1, F.card - 1)),
                    max_size=max_size)


@st.composite
def _built(draw, F, ring):
    """(from elements, from indices, element tuple) of one polynomial: an
    index list placed plainly, on a stride, or on given exponents."""
    idx = trim(draw(_index_lists(F)))
    how = draw(st.sampled_from(("plain", "step", "exponents")))
    step, exponents = 1, None
    if how == "step":
        step = draw(st.integers(2, 4))
        at = [j * step for j in range(len(idx))]
    elif how == "exponents":
        # increasing, and longer than idx, as the digit masks' exponents are
        gaps = draw(st.lists(st.integers(1, 3), min_size=len(idx) + 2,
                             max_size=len(idx) + 2))
        exponents = [sum(gaps[:j + 1]) - gaps[0] for j in range(len(gaps))]
        at = exponents
    else:
        at = range(len(idx))
    coeffs = [F.zero] * (at[len(idx) - 1] + 1 if idx else 0)
    for e, i in zip(at, idx):
        coeffs[e] = F.from_index(i)
    from_elements = ring.poly(coeffs)
    from_indices = _from_indices(ring, idx, step, exponents)
    return from_elements, from_indices, ElementPoly.trimmed(coeffs)


def _same(results, want=None):
    """Results of one operation on each construction of its operands: one
    index tuple, one text, one hash, and the coefficients want, if given."""
    first = results[0]
    for r in results:
        assert _indices(r) == _indices(first)
        assert repr(r) == repr(first)
        assert hash(r) == hash(first)
        assert r == first
    if want is not None:
        assert first.coeffs == want
        assert _indices(first) == tuple(c.index for c in want)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_every_operation_agrees_on_both_constructions(name, data):
    F = _field(name)
    ring = PolyRing(F, "s")
    E, R = ElementPoly(F), ReferenceField(F.p, F._kernel.modulus_digits)
    a_el, a_ix, a = data.draw(_built(F, ring))
    b_el, b_ix, b = data.draw(_built(F, ring))
    pairs = [(a_el, b_el), (a_ix, b_ix), (a_el, b_ix), (a_ix, b_el)]
    assert a_el == a_ix and a_el.coeffs == a_ix.coeffs == a
    _same([f + g for f, g in pairs], E.add(a, b))
    _same([f - g for f, g in pairs], E.add(a, E.neg(b)))
    _same([f * g for f, g in pairs], E.mul(a, b))
    _same([-f for f in (a_el, a_ix)], E.neg(a))
    _same([f.derivative() for f in (a_el, a_ix)], E.derivative(a))
    k = data.draw(st.integers(0, 3))
    _same([f.shifted(k) for f in (a_el, a_ix)], E.shifted(a, k))
    x = F.from_index(data.draw(st.integers(0, F.card - 1)))
    assert a_el(x) == a_ix(x) == E.value(a, x)
    i = data.draw(st.integers(-1, len(a) + 1))
    assert a_el.coeff(i) == a_ix.coeff(i) == (a[i] if 0 <= i < len(a)
                                               else F.zero)
    assert a_el.degree == a_ix.degree == len(a) - 1
    assert bool(a_el) == bool(a_ix) == bool(a)
    assert a_el.constant_coeff() == a_ix.constant_coeff()
    if a:
        assert a_el.lead == a_ix.lead == a[-1]
        _same([f.monic() for f in (a_el, a_ix)], E.monic(a))
        e = data.draw(st.integers(0, 2 * F.card))
        _same([powmod(g, e, f) for f, g in pairs],
              tuple(F._elements(R.powmod(list(_indices(b_el)), e,
                                         list(_indices(a_el))))))
    if b:
        quot, rem = E.divmod(a, b)
        results = [divmod(f, g) for f, g in pairs]
        _same([qr[0] for qr in results], quot)
        _same([qr[1] for qr in results], rem)
    if a or b:
        _same([poly_gcd(f, g) for f, g in pairs],
              tuple(F._elements(R.gcd(list(_indices(a_ix)), list(_indices(b_ix))))))
    if len(a) > 1:
        assert is_irreducible(a_el) == is_irreducible(a_ix) \
            == (len(a) == 2 or R.is_irreducible(list(_indices(a_ix))))
        assert roots_in_extension(a_el, 1) == roots_in_extension(a_ix, 1)
        if F.card <= 81:
            # in the quadratic extension, against the roots of the
            # coefficients embedded one element at a time
            roots = roots_in_extension(a_ix, 2)
            E2 = F.extension(2)
            want = E2._kernel.distinct_roots([embed(c, E2).index for c in a])
            assert roots == roots_in_extension(a_el, 2)
            assert sorted({r.index for r in roots}) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_equal_polynomials_hash_alike_however_built(name, data):
    F = _field(name)
    ring = PolyRing(F, "s")
    f_el, f_ix, _ = data.draw(_built(F, ring))
    g_el, g_ix, _ = data.draw(_built(F, ring))
    assert f_el == f_ix and hash(f_el) == hash(f_ix)
    assert f_ix in {f_el} and f_el in {f_ix}
    table = {f_el: "f"}
    assert table[f_ix] == "f"
    # unequal values are told apart in either construction
    assert (f_ix == g_el) == (f_el == g_ix) == (f_el.coeffs == g_el.coeffs)
    assert (g_ix in table) == (f_el == g_el)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_a_constant_equals_its_coefficient(name, data):
    F = _field(name)
    ring = PolyRing(F, "s")
    i = data.draw(st.one_of(st.integers(0, F.p - 1),
                            st.integers(0, F.card - 1)))
    c = F.from_index(i)
    for f in (ring.coerce(c), _from_indices(ring, [i] if i else [])):
        assert f == c and c == f and hash(f) == hash(c)
        assert c in {f} and f in {c}
        # an int is the element of its own index in the prime subfield
        assert (f == i) == (i < F.p) == (c == i)
        if i < F.p:
            assert hash(f) == hash(i) and i in {f}


_TOWERS = [
    # one field twice: F_4 and F_16 as the designated F_q and as plain
    # extensions of F_2, by the same least modulus
    (lambda: base_field(4), lambda: base_field(2).extension(2)),
    (lambda: base_field(16), lambda: base_field(2).extension(4)),
    # one absolute field F_16 in two towers, and F_(2^8) in two
    (lambda: base_field(16), lambda: base_field(4).extension(2)),
    (lambda: base_field(16).extension(2), lambda: base_field(2).extension(8)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_TOWERS))), st.data())
def test_two_tower_instances_compare_as_their_elements(k, data):
    F1, F2 = (make() for make in _TOWERS[k])
    assert F1 is not F2 and F1.card == F2.card
    idx1 = trim(data.draw(_index_lists(F1)))
    idx2 = idx1 if data.draw(st.booleans()) else \
        trim(data.draw(_index_lists(F2)))
    f1 = PolyRing(F1, "s").poly([F1.from_index(i) for i in idx1])
    f2 = _from_indices(PolyRing(F2, "s"), idx2)
    # as on the element path: the other ring coerces, so the fields are
    # equal, and then the elements compare one by one; fields in two towers
    # are not equal, and neither are their zero polynomials
    want = F1 == F2 and len(idx1) == len(idx2) and all(
        F1.from_index(i) == F2.from_index(j) for i, j in zip(idx1, idx2))
    assert (F1 == F2) == (k < 2)
    assert (f1 == f2) == (f2 == f1) == want
    if want:
        assert hash(f1) == hash(f2)


def _has_elements(f):
    """Whether f holds its tuple of elements (`coeffs` without building
    it)."""
    try:
        object.__getattribute__(f, "coeffs")
    except AttributeError:
        return False
    return True


def test_a_polynomial_from_indices_builds_no_element_until_read():
    F = _field("F_81")
    f = _from_indices(PolyRing(F, "s"), [3, 0, 5], exponents=[0, 2, 4, 6])
    g = (f * f + f.derivative() - f.shifted(2)).monic()
    text, _, _ = repr(g), hash(g), g(F.gen)
    assert g.degree == 8 and g.lead == F.one and g != f
    assert not _has_elements(f) and not _has_elements(g)
    assert f.coeffs == (F.from_index(3), F.zero, F.zero, F.zero,
                        F.from_index(5))
    assert _has_elements(f) and repr(g) == text


@pytest.mark.parametrize("q, d", [(2, 5), (3, 3), (4, 2), (9, 2)])
def test_enumerated_primes_build_no_element_of_p(q, d):
    # kappa is built from p's index tuple; its modulus reads as elements
    F = base_field(q)
    primes = list(primes_of_degree(F, d))
    assert primes and not any(_has_elements(p.p_poly) for p in primes)
    assert all(p.kappa.modulus_over_base == p.p_poly.coeffs for p in primes)

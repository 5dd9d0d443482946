"""Sparse multivariate arithmetic and cross-multiplied fractions."""

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.fields import base_field
from drinfeld_deuring.multipoly import Frac, MultiPoly, MultiRing

from reference import power_by_squaring


def _ring(q, names=("T", "X")):
    return MultiRing(base_field(q), names)


def test_ring_basics():
    R = _ring(3)
    T, X = R.gens()
    f = (T + X) ** 2
    assert f == T * T + 2 * T * X + X * X
    assert f.degree() == 2
    assert f.degree("T") == 2
    assert (T * X * X).degree("X") == 2
    assert R.zero.degree() == -1
    assert not (f - f)


def test_ring_needs_a_variable():
    # evaluate() on a ring with no variables had no value to build its zero
    with pytest.raises(DomainError):
        MultiRing(base_field(3), ())


def test_freshman_dream():
    # (a + b)^p = a^p + b^p in characteristic p
    R = _ring(5)
    T, X = R.gens()
    assert (T + X) ** 5 == T ** 5 + X ** 5


def test_const_and_coerce():
    R = _ring(2)
    T, X = R.gens()
    assert R.const(0) == R.zero
    assert T + 1 == T + R.one
    other = MultiRing(base_field(2), ("T", "Y"))
    try:
        T * other.gens()[1]
        assert False
    except (DomainError, TypeError):
        pass


def test_sorted_terms_graded():
    R = _ring(3)
    T, X = R.gens()
    f = X + T * T + T * X + 1
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == [(2, 0), (1, 1), (0, 1), (0, 0)]


def test_evaluate_elements():
    R = _ring(3)
    T, X = R.gens()
    F = R.field
    f = T * T + 2 * X + 1
    v = f.evaluate({"T": F.from_index(2), "X": F.from_index(1)})
    assert v == F.from_index(1)  # 4 + 2 + 1 = 7 = 1 mod 3
    # missing variable
    try:
        f.evaluate({"T": F.one})
        assert False
    except DomainError:
        pass


def test_evaluate_fraction_values():
    R = _ring(2)
    T, X = R.gens()
    f = T * X + 1
    fr = Frac(T, X)
    out = f.evaluate({"T": fr, "X": fr})
    assert isinstance(out, Frac)
    assert out == Frac(T * T + X * X, X * X)


def test_frac_arithmetic():
    R = _ring(3)
    T, X = R.gens()
    a = Frac(T, X)
    b = Frac(X, T)
    assert a * b == 1
    assert a + b == Frac(T * T + X * X, T * X)
    assert a - a == Frac(R.zero, R.one)
    assert (a / b) == Frac(T * T, X * X)
    assert a ** -2 == Frac(X * X, T * T)
    # unreduced representatives still compare equal
    assert Frac(T * X, X * X) == Frac(T, X)


def test_frac_zero_denominator():
    R = _ring(2)
    T, X = R.gens()
    try:
        Frac(T, R.zero)
        assert False
    except ZeroDivisionError:
        pass
    try:
        Frac(T, X) / Frac(R.zero, X)
        assert False
    except ZeroDivisionError:
        pass


def _polys(q, nvars=2, max_exp=3):
    F = base_field(q)
    names = ("T", "X")[:nvars]
    ring = MultiRing(F, names)
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    coeff = st.integers(0, q - 1)
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: MultiPoly(ring, {e: F.from_index(c) for e, c in d.items() if c}))


@settings(max_examples=60, deadline=None)
@given(_polys(3), _polys(3), _polys(3))
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(_polys(2), _polys(2))
def test_mul_degree_additive(f, g):
    if f and g:
        assert (f * g).degree() == f.degree() + g.degree()


# --- packed term maps against the element-level reference ------------------

# the element-level loops MultiPoly ran before its terms moved onto packed
# keys and F_q indices, kept as the differential reference; a polynomial is
# {exponent tuple: nonzero element}
def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        out[e] = c if s is None else s + c
    return {e: c for e, c in out.items() if c}


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            s = out.get(e)
            out[e] = c if s is None else s + c
    return {e: c for e, c in out.items() if c}


def _ref_evaluate(a, names, values):
    acc = values[names[0]] * 0
    for e, c in a.items():
        term = c
        for name, x in zip(names, e):
            term = term * values[name] ** x
        acc = acc + term
    return acc


_NAMES = ("T", "X", "Y")
# 2^16: no table of sums, as in the big-field test below
_DIFF_QS = (2, 3, 4, 5, 9, 1 << 16)


@st.composite
def _ring_and_maps(draw, count):
    q = draw(st.sampled_from(_DIFF_QS))
    nvars = draw(st.integers(1, 3))
    F = base_field(q)
    exps = st.tuples(*([st.integers(0, 4)] * nvars))
    maps = [{e: F.from_index(c) for e, c in draw(st.dictionaries(
        exps, st.integers(0, q - 1), max_size=5)).items() if c}
        for _ in range(count)]
    return MultiRing(F, _NAMES[:nvars]), maps


@settings(max_examples=120, deadline=None)
@given(_ring_and_maps(2), st.integers(0, 3), st.data())
def test_packed_arithmetic_matches_the_element_level_reference(
        ring_maps, k, data):
    R, (a, b) = ring_maps
    f, g = MultiPoly(R, a), MultiPoly(R, b)
    assert f.terms == a and g.terms == b
    assert (f + g).terms == _ref_add(a, b)
    assert (f - g).terms == _ref_add(a, _ref_neg(b))
    assert (-f).terms == _ref_neg(a)
    assert (f * g).terms == _ref_mul(a, b) == (g * f).terms
    power = {(0,) * R.nvars: R.field.one}
    for _ in range(k):
        power = _ref_mul(power, a)
    assert (f ** k).terms == power
    assert (f == g) is (a == b)
    assert f == MultiPoly(R, dict(reversed(a.items())))
    for i, name in enumerate(R.names):
        assert f.degree(name) == max((e[i] for e in a), default=-1)
    assert f.degree() == max((sum(e) for e in a), default=-1)
    assert f.sorted_terms() == sorted(
        a.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    values = {name: R.field.from_index(
        data.draw(st.integers(0, R.field.card - 1))) for name in R.names}
    assert f.evaluate(values) == _ref_evaluate(a, R.names, values)


@pytest.mark.parametrize("q", [257, 3 ** 6, 1 << 16])
def test_big_fields_build_no_table_of_sums(q, monkeypatch):
    # a table of sums has q^2 entries: 2^32 over F_(2^16)
    F = base_field(q)

    def forbidden():
        raise AssertionError("a table of sums was built")

    monkeypatch.setattr(F._kernel, "sums", forbidden)
    R = MultiRing(F, ("T", "X"))
    a = {(i, j): F.from_index((7 * i + 5 * j + 1) * 40503 % q or 1)
         for i in range(4) for j in range(3)}
    b = {(1, 0): F.one, (0, 1): -F.one, (2, 2): F.from_index(q - 1)}
    f, g = MultiPoly(R, a), MultiPoly(R, b)
    assert (f * g).terms == _ref_mul(a, b)
    assert (f * g - g * f + f).terms == a
    assert (f + g).terms == _ref_add(a, b)


def test_exponents_stay_below_2_to_the_31():
    R = _ring(3)
    T, X = R.gens()
    top = T ** ((1 << 31) - 1)
    assert top.degree("T") == (1 << 31) - 1 and (top * X).degree() == 1 << 31
    with pytest.raises(DomainError):
        T ** (1 << 31)
    with pytest.raises(DomainError):
        top * T
    # also when the other terms of the product fit
    with pytest.raises(DomainError):
        (top + X) * (T + 1)
    for e in ((1 << 31, 0), (-1, 0), (0, 1 << 40), (1,)):
        with pytest.raises(DomainError):
            MultiPoly(R, {e: R.field.one})
    assert MultiPoly(R, {((1 << 31) - 1, 0): R.field.one}) == top


# the power fields: prime and not, both sides of the table of sums
_POWER_QS = (2, 3, 4, 9, 1 << 16)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_POWER_QS), st.integers(1, 2), st.integers(0, 5),
       st.integers(0, 2), st.data())
def test_frobenius_powers_match_square_and_multiply(q, nvars, m, k, data):
    # e = m * p^k: with and without a factor p^k, whose part of the power
    # takes no product
    F = base_field(q)
    R = MultiRing(F, _NAMES[:nvars])
    exps = st.tuples(*([st.integers(0, 3)] * nvars))
    f = MultiPoly(R, {e: F.from_index(c) for e, c in data.draw(
        st.dictionaries(exps, st.integers(0, q - 1), max_size=3)).items()
        if c})
    e = m * F.p ** k
    assert (f ** e).packed == power_by_squaring(f, e).packed
    if f:
        fr = Frac(f + 1, f)
        assert (fr ** e) == power_by_squaring(fr, e)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_a_frobenius_past_a_slot_is_refused(q):
    # 2^31 <= deg * e: refused as by square-and-multiply, before a scaled
    # key could carry from the low slot X into T's
    R = _ring(q)
    T, X = R.gens()
    p = R.field.p
    k = 30 if p == 2 else 19
    assert p ** k < 1 << 31 <= p ** (k + 1)
    assert (X ** p ** k).degree("X") == p ** k
    # X^4 to the p^k would carry a unit into T's slot.  The reference
    # squares a monomial only: a binomial's squares are dense at odd p
    for f, e in ((T, 1 << 31), (X ** 2, p ** k), (X ** 4 * T, p ** k),
                 (X ** 5 + T, p ** (k + 1)), (T + X ** 4, p ** k)):
        if len(f.packed) == 1:
            with pytest.raises(DomainError, match="2\\^31"):
                power_by_squaring(f, e)
        with pytest.raises(DomainError, match="2\\^31"):
            f ** e
    # just below the limit, and zero and constants at any exponent
    assert (X ** 2) ** (p ** k // 2) == power_by_squaring(X ** 2, p ** k // 2)
    assert R.zero ** (1 << 40) == R.zero and R.one ** (1 << 40) == R.one

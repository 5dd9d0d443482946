"""Univariate polynomial layer: division, gcd, irreducibility, roots."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.errors import (
    AmbientTooSmallError, CapExceededError, DomainError,
    RecurrenceBreakdownError,
)
from drinfeld_deuring.fields import FiniteField, base_field, embed
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.isogeny_graph import (
    build_supersingular_graph, verify_component,
)
from drinfeld_deuring.modulus import (
    PrimeModulus, primes_of_degree, t_poly_ring,
)
from drinfeld_deuring.ore import qpow
from drinfeld_deuring.poly import (
    Poly, PolyRing, _monic_polys, exact_div, is_irreducible, poly_gcd,
    powmod, roots_in_extension, splitting_degree,
)


def _ring(q, var="T"):
    return PolyRing(base_field(q), var)


def test_divmod_and_exact_division():
    R = _ring(2)
    f = parse("T^3 + T + 1", R)
    g = parse("T + 1", R)
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree == 0
    h = f * g
    assert exact_div(h, g) == f
    with pytest.raises(DomainError):
        exact_div(f, g)


def test_poly_gcd_examples():
    R = _ring(2)
    f = parse("T^2 + T", R)     # T(T+1)
    g = parse("T^2 + 1", R)     # (T+1)^2
    assert render(poly_gcd(f, g)) == "T + 1"
    assert poly_gcd(f, R.zero) == f.monic()
    with pytest.raises(DomainError):
        poly_gcd(R.zero, R.zero)


def test_is_irreducible_examples():
    R2 = _ring(2)
    assert is_irreducible(parse("T^2 + T + 1", R2))
    assert not is_irreducible(parse("T^2 + 1", R2))
    R3 = _ring(3)
    assert is_irreducible(parse("T^2 + 1", R3))
    with pytest.raises(DomainError):
        is_irreducible(R2.one)


def test_roots_in_extension_examples():
    F2 = base_field(2)
    S = PolyRing(F2, "s")
    f = parse("s^2 + s", S)
    assert sorted(r.index for r in roots_in_extension(f, 1)) == [0, 1]
    assert roots_in_extension(S.one, 2) == []
    g = parse("s^2 + s + 1", S)
    assert roots_in_extension(g, 1) == []
    roots = roots_in_extension(g, 2)
    F4 = F2.extension(2)
    assert len(roots) == 2
    assert {render(r) for r in roots} == {"b", "b + 1"}
    assert all(r.field == F4 for r in roots)


def test_roots_multiplicity():
    R = _ring(3)
    f = parse("T + 1", R) ** 2 * parse("T + 2", R)
    roots = roots_in_extension(f, 1)
    assert len(roots) == 3  # double root counted twice
    assert sorted((-r).index for r in roots) == [1, 1, 2]


def test_splitting_degree():
    S = PolyRing(base_field(2), "s")
    assert splitting_degree(parse("s^2 + s", S), 4) == 1
    assert splitting_degree(parse("s^2 + s + 1", S), 4) == 2
    with pytest.raises(AmbientTooSmallError):
        splitting_degree(parse("s^2 + s + 1", S), 1)


def test_derivative_and_evaluation():
    R = _ring(3)
    f = parse("T^4 + 2*T^3 + T + 1", R)
    assert render(f.derivative()) == "T^3 + 1"
    x = base_field(3).from_index(2)
    assert f(x) == sum((f.coeff(i) * x ** i for i in range(5)),
                       base_field(3).zero)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_poly_ring_commutes_with_evaluation(cs, ds):
    F = base_field(9)
    R = PolyRing(F, "T")
    f = R.poly([F.from_index(c) for c in cs])
    g = R.poly([F.from_index(d) for d in ds])
    x = F.from_index(5)
    assert (f * g)(x) == f(x) * g(x)
    assert (f + g)(x) == f(x) + g(x)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=7),
       st.lists(st.integers(1, 4), min_size=1, max_size=5))
def test_divmod_roundtrip_property(cs, ds):
    R = _ring(5)
    F = R.base
    f = R.poly([F.from_index(c) for c in cs])
    g = R.poly([F.from_index(d) for d in ds])
    if not g:
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree


# --- the sparse-support kernels against dense schoolbook references ---------

def _dense_mul(a, b):
    """Schoolbook product that visits every coefficient pair, zeros too."""
    R = a.ring
    if not a or not b:
        return R.zero
    out = [R.base.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(R, out)


def _dense_divmod(f, g):
    """Long division that subtracts every coefficient of g, zeros too."""
    R = f.ring
    n = g.degree
    inv = g.lead.inverse()
    rem = list(f.coeffs)
    quot = [R.base.zero] * max(len(rem) - n, 0)
    for k in range(len(rem) - n - 1, -1, -1):
        c = rem[k + n] * inv
        quot[k] = c
        for i, y in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - c * y
    return Poly(R, quot), Poly(R, rem[:n])


# q^k <= 16 keeps the stretched operands small enough for the references
_STRETCH = {2: (1, 2, 3, 4), 4: (1, 2), 5: (1,), 9: (1,)}


@st.composite
def _operand(draw, q, ring=None):
    """A polynomial over F_q[T] (or `ring`, whose base is F_q[T]): mostly
    zero coefficients, a q^k-stretched one, or the binomial T^(q^k) - T."""
    R = ring or _ring(q)
    kind = draw(st.sampled_from(["sparse", "stretched", "binomial"]))
    k = draw(st.sampled_from(_STRETCH[q]))
    if ring is not None:
        coeffs = draw(st.lists(_operand(q), min_size=1, max_size=4))
        f = R.poly(coeffs)
        return qpow(f, q, k) if kind == "stretched" else f
    if kind == "binomial":
        return R.gen ** (q ** k) - R.gen
    F = R.base
    idx = draw(st.lists(st.one_of(st.just(0), st.integers(0, F.card - 1)),
                        min_size=1, max_size=7))
    f = R.poly([F.from_index(i) for i in idx])
    return qpow(f, q, k) if kind == "stretched" else f


@st.composite
def _operand_pair(draw, nested=False):
    q = draw(st.sampled_from(sorted(_STRETCH)))
    ring = PolyRing(_ring(q), "s") if nested else None
    return draw(_operand(q, ring)), draw(_operand(q, ring))


@settings(max_examples=80, deadline=None)
@given(_operand_pair())
def test_mul_matches_dense_schoolbook(pair):
    a, b = pair
    assert (a * b).coeffs == _dense_mul(a, b).coeffs
    assert (b * a).coeffs == _dense_mul(b, a).coeffs


@settings(max_examples=30, deadline=None)
@given(_operand_pair(nested=True))
def test_nested_mul_matches_dense_schoolbook(pair):
    a, b = pair
    assert (a * b).coeffs == _dense_mul(a, b).coeffs


@settings(max_examples=80, deadline=None)
@given(_operand_pair())
def test_divmod_matches_dense_long_division(pair):
    f, g = pair
    if not g:
        return
    quo, rem = divmod(f, g)
    ref_quo, ref_rem = _dense_divmod(f, g)
    assert quo.coeffs == ref_quo.coeffs
    assert rem.coeffs == ref_rem.coeffs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_STRETCH)), st.data())
def test_exact_div_by_binomial_flags_one_stray_term(q, data):
    R = _ring(q)
    F = R.base
    k = data.draw(st.sampled_from(_STRETCH[q]))
    div = R.gen ** (q ** k) - R.gen
    g = data.draw(_operand(q))
    f = g * div
    assert exact_div(f, div, RecurrenceBreakdownError) == g
    j = data.draw(st.integers(0, f.degree + 2))
    c = F.from_index(data.draw(st.integers(1, F.card - 1)))
    with pytest.raises(RecurrenceBreakdownError):
        exact_div(f + R.gen ** j * c, div, RecurrenceBreakdownError)


def _gamma_primes(q):
    F = base_field(q)
    return [p for d in (1, 2, 3) for p in islice(primes_of_degree(F, d), 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_gamma_matches_elementwise_horner(q, data):
    prime = data.draw(st.sampled_from(_gamma_primes(q)))
    F, K = prime.field_q, prime.kappa
    idx = data.draw(st.lists(st.integers(0, q - 1), max_size=12))
    f = prime.p_poly.ring.poly([F.from_index(i) for i in idx])
    if data.draw(st.booleans()):
        # sparse and q^k-stretched, as the coefficients of grec and of the
        # u-sequence are, with a top term above degree 1000
        f = qpow(f, q, data.draw(st.integers(1, 3))) \
            + f.ring.gen ** data.draw(st.integers(1001, 4000))
    ref = K.zero
    for c in reversed(f.coeffs):
        ref = ref * prime.alpha + K.embed_from_base(c)
    assert prime.gamma(f) == ref
    assert prime.gamma(f).field is K


def test_reduce_terms_adds_the_rows_it_is_given_twice():
    # one row split over two (r, terms) pairs reduces as the whole row;
    # the universal route hands the kernel one pair per term
    prime = _gamma_primes(3)[-1]
    F = prime.field_q
    f = prime.p_poly.ring.poly([F.from_index(i) for i in (1, 0, 2, 1, 0, 2)])
    terms = [(e, c.index) for e, c in enumerate(f.coeffs) if c]
    rows = prime._reduce_terms([(5, terms[:2]), (7, terms), (5, terms[2:])])
    assert rows == {5: prime.gamma(f).index, 7: prime.gamma(f).index}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]),
       st.lists(st.integers(0, 3), max_size=6),
       st.lists(st.integers(0, 3), min_size=2, max_size=5),
       st.integers(0, 40))
def test_powmod_matches_power_then_remainder(q, gs, fs, e):
    R = _ring(q)
    g = R.poly([R.base.from_index(i % q) for i in gs])
    f = R.poly([R.base.from_index(i % q) for i in fs])
    if f.degree < 1:
        return
    assert powmod(g, e, f) == (g ** e) % f


def _scan_roots(f, m):
    """Indices of the roots of f in the degree-m extension, with
    multiplicity, by evaluating f at every element."""
    K = f.ring.base
    E = K if m == 1 else K.extension(m)
    ring = PolyRing(E, f.ring.var)
    g = f.map_coeffs(lambda c: embed(c, E), ring)
    out = []
    for x in E.elements():
        h = g
        while not h(x):
            h = h // Poly(ring, (-x, E.one))
            out.append(x.index)
    return out


_ROOT_QS = (2, 3, 4, 5, 9)


def _irreducibles(K, degree):
    ring = PolyRing(K, "s")
    return list(islice((f for f in _monic_polys(ring, degree)
                        if is_irreducible(f)), 6))


@st.composite
def _root_poly(draw):
    """m <= 3 and a polynomial over F_q: repeated linear factors, irreducible
    factors of degree 2 or 3, an arbitrary factor and a nonzero constant."""
    q = draw(st.sampled_from(_ROOT_QS))
    m = draw(st.integers(1, 3))
    K = base_field(q)
    ring = PolyRing(K, "s")
    f = ring.const(K.from_index(draw(st.integers(1, q - 1))))
    for a in draw(st.lists(st.integers(0, q - 1), max_size=4)):
        f = f * (ring.gen - K.from_index(a)) ** draw(st.integers(1, 3))
    for deg in draw(st.lists(st.sampled_from([2, 3]), max_size=2)):
        f = f * draw(st.sampled_from(_irreducibles(K, deg)))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5))
        g = ring.poly([K.from_index(i) for i in idx])
        if g:
            f = f * g
    return m, f


@settings(max_examples=80, deadline=None)
@given(_root_poly())
def test_roots_match_exhaustive_scan(case):
    m, f = case
    assert [r.index for r in roots_in_extension(f, m)] == _scan_roots(f, m)


def _neighbor_cases():
    # (q, d, m) with |kappa_m| <= 9^4, which takes in kappa_2 at q = 9, d = 2
    return [(q, d, m) for q in _ROOT_QS for d in (1, 2) for m in (1, 2, 3)
            if q ** (d * m) <= 9 ** 4]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_neighbor_cases()), st.data())
def test_neighbor_polynomial_roots_match_exhaustive_scan(case, data):
    q, d, m = case
    prime = data.draw(st.sampled_from(
        list(islice(primes_of_degree(base_field(q), d), 3))))
    E = prime.kappa if m == 1 else prime.kappa.extension(m)
    ring = PolyRing(E, "Y")
    Y = ring.gen
    delta0 = E.from_index(data.draw(st.integers(1, E.card - 1)))
    g_Tq = embed(prime.alpha ** q, E)
    # the neighbor polynomial of isogeny_graph.neighbors over kappa_m
    c = -ring.const(g_Tq) * (Y + ring.one) ** (q - 1) * Y - ring.const(delta0)
    assert [r.index for r in roots_in_extension(c, 1)] == _scan_roots(c, 1)


def test_roots_outside_the_cap_raise():
    S2 = PolyRing(base_field(2), "s")
    with pytest.raises(CapExceededError):
        roots_in_extension(parse("s^2 + s + 1", S2), 17)
    S16 = PolyRing(base_field(16), "s")
    with pytest.raises(CapExceededError):
        roots_in_extension(parse("s^2 + s + 1", S16), 5)


def test_root_finding_never_scans_the_field(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("root finding scanned or evaluated")

    prime = PrimeModulus(parse("T^5 + T^2 + 1", t_poly_ring(base_field(2))))
    S = PolyRing(base_field(2), "s")
    f = parse("s^4 + s + 1", S) * parse("s^3 + s + 1", S) * parse("s^2 + s", S)
    monkeypatch.setattr(FiniteField, "elements", forbidden)
    monkeypatch.setattr(Poly, "__call__", forbidden)
    graph = build_supersingular_graph(prime)
    roots = roots_in_extension(f, 12)  # over F_{2^12}
    monkeypatch.undo()
    assert verify_component(graph).ok
    assert len(roots) == 9 == len(set(roots))
    assert roots == sorted(roots, key=lambda r: r.index)
    assert all(r.field.card == 2 ** 12 for r in roots)
    E = roots[0].field
    g = f.map_coeffs(lambda c: embed(c, E), PolyRing(E, "s"))
    assert all(not g(r) for r in roots)

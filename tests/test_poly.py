"""Univariate polynomial layer: division, gcd, irreducibility, roots."""

from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.drinfeld import (
    deuring_H, deuring_h_direct, deuring_h_grec, deuring_h_universal,
)
from drinfeld_deuring.errors import (
    AmbientTooSmallError, CapExceededError, DomainError,
)
from drinfeld_deuring.fields import (
    FieldElement, FiniteField, _abs_tables, _cap_exponent, _prime_divisors,
    base_field, embed,
)
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.isogeny_graph import (
    build_supersingular_graph, verify_component,
)
from drinfeld_deuring.modulus import (
    PrimeModulus, _mask_exponents, primes_of_degree, t_poly_ring,
)
from drinfeld_deuring.ore import qpow
from drinfeld_deuring.poly import (
    Poly, PolyRing, is_irreducible, poly_gcd, powmod, roots_in_extension,
    splitting_degree,
)
import reference
from reference import ReferenceField, exact_div, monic_polys


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
    with pytest.raises(DomainError):
        roots_in_extension(S.zero, 1)


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
    assert exact_div(f, div) == g
    j = data.draw(st.integers(0, f.degree + 2))
    c = F.from_index(data.draw(st.integers(1, F.card - 1)))
    with pytest.raises(DomainError):
        exact_div(f + R.gen ** j * c, div)


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


def test_powmod_refuses_a_negative_exponent():
    # square-and-multiply never ends on -1, since -1 >> 1 == -1
    R = _ring(2, "y")
    f = parse("y^2 + y + 1", R)
    with pytest.raises(DomainError):
        powmod(R.gen, -1, f)


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


_ROOT_QS = (2, 3, 4, 5, 8, 9, 16)


def _irreducibles(K, degree):
    ring = PolyRing(K, "s")
    return list(islice((f for f in monic_polys(ring, degree)
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


def _roots_by_division(f, m):
    """Indices of roots_in_extension(f, m) as the division loop finds them:
    each distinct root divided out of f for as long as it divides."""
    K = f.ring.base
    E = K if m == 1 else K.extension(m)
    k = E._kernel
    g = [embed(c, E).index for c in f.coeffs]
    out = []
    for r in k.distinct_roots(g):
        lin = [k._neg(r), 1]
        while True:
            quo, rem = k.divmod_polys(g, lin)
            if rem:
                break
            g = quo
            out.append(r)
    return out


@st.composite
def _linear_products(draw):
    """m <= 3 and c * prod (s - a)^e over distinct a in F_q, the e all 1 or
    up to 3, times at most one irreducible factor of degree 2 or 3: with or
    without repeated roots, split in kappa_m or not."""
    q = draw(st.sampled_from(_ROOT_QS))
    m = draw(st.integers(1, 3))
    K = base_field(q)
    ring = PolyRing(K, "s")
    f = ring.const(K.from_index(draw(st.integers(1, q - 1))))
    top = draw(st.sampled_from([1, 3]))
    for a in draw(st.lists(st.integers(0, q - 1), unique=True, max_size=5)):
        f = f * (ring.gen - K.from_index(a)) ** draw(st.integers(1, top))
    for deg in draw(st.lists(st.sampled_from([2, 3]), max_size=1)):
        f = f * draw(st.sampled_from(_irreducibles(K, deg)))
    return m, f


@settings(max_examples=80, deadline=None)
@given(_linear_products())
def test_roots_match_the_division_loop(case):
    # deg f distinct roots are returned as found, with no division
    m, f = case
    assert [r.index for r in roots_in_extension(f, m)] == \
        _roots_by_division(f, m)


def _neighbor_cases():
    # (q, d, m) with |kappa_m| <= 9^4, which takes in kappa_2 at q = 9, d = 2
    return [(q, d, m) for q in (2, 3, 4, 5, 9) for d in (1, 2)
            for m in (1, 2, 3) if q ** (d * m) <= 9 ** 4]


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


@st.composite
def _kernel_poly(draw):
    """The kernel of F_(2^k), k <= 8 (F_16 among them), or F_(3^k), k <= 5,
    and a nonzero index list over it: linear factors with multiplicities
    up to 3, times an arbitrary factor, which may have roots or not."""
    p, k = draw(st.sampled_from([(2, k) for k in range(1, 9)]
                                + [(3, k) for k in range(1, 6)]))
    K = _abs_tables(p, k)
    g = [draw(st.integers(1, K.card - 1))]
    for a in draw(st.lists(st.integers(0, K.card - 1), max_size=5)):
        for _ in range(draw(st.integers(1, 3))):
            g = K.mul_polys(g, [K._neg(a), 1])
    extra = draw(st.lists(st.integers(0, K.card - 1), max_size=8))
    while extra and not extra[-1]:
        extra.pop()
    if extra:
        g = K.mul_polys(g, extra)
    return K, g


@settings(max_examples=150, deadline=None)
@given(_kernel_poly())
def test_distinct_roots_match_the_round_by_round_reference(case):
    # the tree of splits against every part reduced in every round
    K, g = case
    assert K.distinct_roots(g) == reference.distinct_roots(K, g)


def test_distinct_roots_over_F16_match_the_reference():
    K = base_field(16)._kernel
    assert K is _abs_tables(2, 4)
    # every element of F_16 a root, two of them twice, times an
    # x^2 + x + c with no root in F_16
    c = next(c for c in range(1, 16) if not K.distinct_roots([c, 1, 1]))
    g = [c, 1, 1]
    for a in list(range(16)) + [3, 7]:
        g = K.mul_polys(g, [K._neg(a), 1])
    assert K.distinct_roots(g) == reference.distinct_roots(K, g) == \
        list(range(16))


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


# --- the Poly layer over a finite field against the reference field --------
# Over a finite field, Poly's product and division, powmod, poly_gcd and
# is_irreducible run in the field's index kernel; each is compared, on the
# coefficients' indices, with `reference.ReferenceField`, which reads no
# table.

def _indices(f):
    return [c.index for c in f.coeffs]


def _reference(F):
    return ReferenceField(F.p, F._kernel.modulus_digits)


# the largest extension degree m drawn over F_q: up to the kappa_2 of the
# graph grid (2^12, 3^8, 4^6, 8^4, 9^4)
_KERNEL_FIELDS = {2: 12, 3: 8, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4, 13: 2}


@st.composite
def _kernel_field(draw):
    q = draw(st.sampled_from(sorted(_KERNEL_FIELDS)))
    m = draw(st.integers(1, _KERNEL_FIELDS[q]))
    return base_field(q) if m == 1 else base_field(q).extension(m)


@st.composite
def _field_poly(draw, F, max_size=8):
    """Zero, a constant, or a polynomial with many zero coefficients and
    an arbitrary (mostly non-one) leading coefficient."""
    idx = draw(st.lists(st.one_of(st.just(0), st.integers(1, F.card - 1)),
                        max_size=max_size))
    return PolyRing(F, "s").poly([F.from_index(i) for i in idx])


@settings(max_examples=80, deadline=None)
@given(_kernel_field(), st.data())
def test_kernel_mul_and_divmod_match_elementwise_loops(F, data):
    R = _reference(F)
    a = data.draw(_field_poly(F, 12))
    b = data.draw(_field_poly(F, 12))
    assert _indices(a * b) == R.mul_polys(_indices(a), _indices(b))
    c = F.from_index(data.draw(st.integers(0, F.card - 1)))
    assert _indices(a * c) == R.scale(c.index, _indices(a))
    # a p^k-stretched operand against a short dense one, both ways round:
    # the kernel adds the row of either one, by its cost rule
    step = F.p ** data.draw(st.integers(1, 3))
    idx = [0] * (step * (len(a.coeffs) - 1) + 1) if a else []
    idx[::step] = [x.index for x in a.coeffs]
    long = a.ring.poly([F.from_index(i) for i in idx])
    short = a.ring.poly([F.from_index(i) for i in data.draw(
        st.lists(st.integers(1, F.card - 1), min_size=2, max_size=6))])
    want = R.mul_polys(_indices(long), _indices(short))
    assert _indices(long * short) == _indices(short * long) == want
    if not b:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    quo, rem = divmod(a, b)
    assert (_indices(quo), _indices(rem)) == \
        R.divmod_polys(_indices(a), _indices(b))
    assert all(c.field is F for c in quo.coeffs + rem.coeffs)


@settings(max_examples=60, deadline=None)
@given(_kernel_field(), st.data())
def test_kernel_powmod_and_gcd_match_elementwise_loops(F, data):
    R = _reference(F)
    g = data.draw(_field_poly(F))
    f = data.draw(_field_poly(F))
    if f or g:
        assert _indices(poly_gcd(f, g)) == R.gcd(_indices(f), _indices(g))
    else:
        with pytest.raises(DomainError):
            poly_gcd(f, g)
    if not f:
        with pytest.raises(ZeroDivisionError):
            powmod(g, 3, f)
        return
    # small exponents, and the Frobenius ones root finding uses
    e = data.draw(st.one_of(st.integers(0, 40), st.just(F.p),
                            st.just(F.card)))
    assert _indices(powmod(g, e, f)) == \
        R.powmod(_indices(g), e, _indices(f))


@st.composite
def _wide_char2_poly(draw, K, shape):
    """An index list over F_(2^k) with a nonzero lead: dense; a binomial;
    h-shaped, with 2^d terms on the exponents of the d-bit digit masks of
    a power q of 2, as the Deuring polynomial has (4 of 66 at (64, 2)); or
    a dense one stretched by a power of 2, as grec's and U's factors are."""
    index, nonzero = st.integers(0, K.m1), st.integers(1, K.m1)
    if shape == "binomial":
        n = draw(st.integers(1, 200))
        out = [0] * (n + 1)
        out[draw(st.integers(0, n - 1))] = draw(nonzero)
    elif shape == "h":
        q = draw(st.sampled_from([4, 8, 16, 32, 64]))
        exps = _mask_exponents(q, draw(st.integers(1, 3 if q <= 8 else 2)))
        out = [0] * (exps[-1] + 1)
        for e in exps:
            out[e] = draw(nonzero)
    else:
        out = draw(st.lists(index, max_size=16)) + [draw(nonzero)]
        if shape == "stretched":
            step = 2 ** draw(st.integers(1, 6))
            dense, out = out, [0] * (step * (len(out) - 1) + 1)
            out[::step] = dense
    out[-1] = draw(nonzero)
    return out


_WIDE_SHAPES = ["dense", "binomial", "h", "stretched"]


@settings(max_examples=120, deadline=None)
@given(st.integers(9, 16), st.sampled_from(_WIDE_SHAPES),
       st.sampled_from(_WIDE_SHAPES), st.data())
def test_kernel_rows_match_schoolbook_on_wide_char2_fields(k, a_shape,
                                                            b_shape, data):
    # F_(2^k) from just past the 8-bit slots (2^8 elements) up to the cap,
    # beyond the fields drawn above: products both ways round and division
    # by divisors of every density, each row holding its nonzero terms alone
    K = _abs_tables(2, k)
    R = ReferenceField(2, K.modulus_digits)
    a = data.draw(_wide_char2_poly(K, a_shape))
    b = data.draw(_wide_char2_poly(K, b_shape))
    ab = R.mul_polys(a, b)
    assert K.mul_polys(a, b) == ab
    assert K.mul_polys(b, a) == ab
    want = R.divmod_polys(a, b)
    assert K.divmod_polys(a, b) == want
    assert K.mod(a, b) == want[1]
    # a product of b divides exactly, with the other factor as quotient
    assert K.divmod_polys(ab, b) == (a, [])
    assert K.mod(ab, a) == []


_ODD_KERNELS = [(3, 1), (3, 2), (3, 4), (3, 7), (5, 1), (5, 3), (7, 2),
                (13, 2)]


@st.composite
def _odd_stretched_poly(draw, K):
    """An index list over an odd field with a nonzero lead: dense; Y(y^m)'s
    shape, ones at y^m, y^(2m), ..., y^(qm) for a power q of p, as
    `U_mod_prime` and `compose_in_S` multiply by; or a dense one stretched
    by a power of p.  The powers stay small enough for schoolbook."""
    p, nonzero = K.p, st.integers(1, K.m1)
    shape = draw(st.sampled_from(["dense", "Y", "stretched"]))
    if shape == "Y":
        q = draw(st.sampled_from([p, p * p] if p < 5 else [p]))
        m = draw(st.sampled_from([1, q] if q * q <= 81 else [1]))
        out = [0] * (q * m + 1)
        out[m::m] = [1] * q
        return out
    out = draw(st.lists(st.integers(0, K.m1), max_size=12))
    out.append(draw(nonzero))
    if shape == "stretched":
        step = draw(st.sampled_from([p, p * p] if p < 5 else [p]))
        dense, out = out, [0] * (step * (len(out) - 1) + 1)
        out[::step] = dense
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_ODD_KERNELS), st.data())
def test_kernel_products_skip_zero_slots_on_odd_fields(pk, data):
    # the sparser operand's nonzero slots alone meet the other's row: a
    # product against schoolbook, both ways round, on Zech sums
    K = _abs_tables(*pk)
    a = data.draw(_odd_stretched_poly(K))
    b = data.draw(_odd_stretched_poly(K))
    ab = ReferenceField(K.p, K.modulus_digits).mul_polys(a, b)
    assert K.mul_polys(a, b) == ab
    assert K.mul_polys(b, a) == ab


@settings(max_examples=60, deadline=None)
@given(_kernel_field(), st.data())
def test_kernel_is_irreducible_matches_elementwise_loop(F, data):
    f = data.draw(_field_poly(F, 7))
    if f.degree < 1:
        with pytest.raises(DomainError):
            is_irreducible(f)
        return
    assert is_irreducible(f) == (
        f.degree == 1 or _reference(F).is_irreducible(_indices(f)))


# F_(p^k) for p <= 7, in which degrees 2-8 run Rabin's test quickly
_PRECHECK_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1),
                    (5, 2), (7, 1)]


@st.composite
def _precheck_case(draw):
    """(kernel, f): f of degree 2-8 over F_(p^k), drawn often as a p-th
    power (every exponent with a nonzero coefficient divisible by p), with
    f(0) = 0, or both."""
    p, k = draw(st.sampled_from(_PRECHECK_FIELDS))
    K = _abs_tables(p, k)
    shape = draw(st.sampled_from(["any", "p-th power", "f(0) = 0", "both"]))
    step = p if shape in ("p-th power", "both") else 1
    n = step * draw(st.integers(-(-2 // step), 8 // step))
    coeff = st.one_of(st.just(0), st.integers(1, K.card - 1))
    f = [0] * (n + 1)
    for e in range(0, n, step):
        f[e] = draw(coeff)
    f[n] = draw(st.integers(1, K.card - 1))
    if shape in ("f(0) = 0", "both"):
        f[0] = 0
    return K, f


@settings(max_examples=200, deadline=None)
@given(_precheck_case())
def test_is_irreducible_precheck_matches_rabin(case):
    K, f = case
    assert K.is_irreducible(f) == reference.is_irreducible_by_rabin(K, f)


# f(0) = 0 over F_2 and F_7; a square over F_16, a cube over F_9, and
# x^5 + 2 = (x + 2)^5 over F_5
@pytest.mark.parametrize("p,k,f", [
    (2, 1, [0, 1, 1]), (7, 1, [0, 3, 0, 1]), (2, 4, [5, 0, 1]),
    (3, 2, [4, 0, 0, 2, 0, 0, 1]), (5, 1, [2, 0, 0, 0, 0, 1])])
def test_is_irreducible_refuses_before_any_frobenius_power(monkeypatch, p, k,
                                                           f):
    K = _abs_tables(p, k)

    def unreachable(*_args):
        raise AssertionError("a Frobenius power was formed")

    # every power, listed or formed one at a time, is a `_frobenius` step
    monkeypatch.setattr(K, "_frobenius_powers", unreachable)
    monkeypatch.setattr(K, "_frobenius", unreachable)
    assert not K.is_irreducible(f)


def _frobenius_steps(monkeypatch, K):
    """The list that each `_frobenius` step of K appends to."""
    steps, real = [], K._frobenius

    def counted(*args):
        steps.append(args[0])
        return real(*args)

    monkeypatch.setattr(K, "_frobenius", counted)
    return steps


@pytest.mark.parametrize("p,k,f,steps,answer", [
    # y^2 + y + 4 over F_64 has a root there: one Q-th power, its gcd, stop
    (2, 6, [4, 1, 1], 6, False),
    # the modulus of kappa_2 over F_64, irreducible: all 2 * 6 steps
    (2, 6, [32, 1, 1], 12, True),
    # (y^2 + 1)(y^8 + y^2 + 2) over F_3: the gcd at y^(3^2), for n/r = 2
    # of n = 10, meets the quadratic factor
    (3, 1, [2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1], 2, False),
    # at n = 8 over F_3 a gcd at y^(3^4) would spare only 4 steps, so it
    # follows the test at y^(3^8): a cubic times a quintic fails that
    # test, and two quartics pass it and fail the gcd
    (3, 1, [1, 1, 1, 1, 2, 1, 2, 0, 1], 8, False),
    (3, 1, [1, 0, 2, 0, 1, 0, 0, 0, 1], 8, False),
])
def test_is_irreducible_stops_at_a_factor(monkeypatch, p, k, f, steps,
                                          answer):
    K = _abs_tables(p, k)
    formed = _frobenius_steps(monkeypatch, K)
    assert K.is_irreducible(f) is answer
    assert len(formed) == steps
    assert answer == reference.is_irreducible_by_rabin(K, f)


_ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                "__pow__", "inverse")


def test_kernel_paths_make_no_element_arithmetic(monkeypatch):
    # one field of each kernel kind: prime, characteristic 2, odd extension
    cases = []
    for F in (base_field(5), base_field(2).extension(6),
              base_field(9).extension(2)):
        S = PolyRing(F, "s")
        c = [F.from_index(i % F.card) for i in (3, 0, 7, 1, 2, 11, 5)]
        f = S.poly(c) * (S.gen - F.from_index(2)) ** 2 \
            * (S.gen - F.from_index(F.card - 1))
        g = S.poly(c[:4])
        cases.append((F, f, g))
    # h by the direct and grec routes and the companion H, on kappa of each
    # kernel kind
    primes = [next(iter(primes_of_degree(base_field(q), d)))
              for q, d in ((5, 1), (2, 6), (3, 2))]
    hs = [deuring_h_universal(p) for p in primes]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("element arithmetic on a kernel path")

    for name in _ELEMENT_OPS:
        monkeypatch.setattr(FieldElement, name, forbidden)
    got = []
    for F, f, g in cases:
        got.append((f * g, divmod(f, g), powmod(g, F.card, f),
                    poly_gcd(f, g), is_irreducible(f), is_irreducible(g),
                    roots_in_extension(f, 1), roots_in_extension(g, 2)))
    routes = [(deuring_h_direct(p), deuring_h_grec(p)) for p in primes]
    Hs = [deuring_H(p, h) for p, h in zip(primes, hs)]
    # designated roots of fresh extensions: no scan and no element arithmetic
    fresh = [base_field(3).extension(5, gen_name="k"),
             base_field(4).extension(3, gen_name="k")]
    monkeypatch.undo()
    for (F, f, g), (prod, (quo, rem), pm, gcd, irr_f, irr_g, rf, rg) in \
            zip(cases, got):
        R, fi, gi = _reference(F), _indices(f), _indices(g)
        assert _indices(prod) == R.mul_polys(fi, gi)
        assert (_indices(quo), _indices(rem)) == R.divmod_polys(fi, gi)
        assert _indices(pm) == R.powmod(gi, F.card, fi)
        assert _indices(gcd) == R.gcd(fi, gi)
        assert (irr_f, irr_g) == (R.is_irreducible(fi), R.is_irreducible(gi))
        assert [r.index for r in rf] == _scan_roots(f, 1)
        assert [r.index for r in rg] == _scan_roots(g, 2)
    assert routes == [(h, h) for h in hs]
    for p, h, H in zip(primes, hs, Hs):
        # H = alpha^(-q deg h) * sum_j h_j alpha^j S^(deg h - j), by Horner
        R, a, q = _reference(p.kappa), p.alpha.index, p.q
        S = [1]
        for _ in range(q - 1):
            S = R.mul_polys(S, R.sub_polys([0] * q + [1], [0, 1]))
        ref = []
        for j, c in enumerate(_indices(h)):
            ref = R.add_polys(R.mul_polys(ref, S), [R._mul(c, R._pow(a, j))])
        assert _indices(H) == R.scale(R._pow(a, -q * h.degree), ref)
    for E in fresh:
        assert E.gen.index == _scan_first_root(
            E, [embed(c, E).index for c in E.modulus_over_base])


def test_polynomial_arithmetic_adds_no_field_attributes():
    # the kernel's state lives in attributes set when a field is built, so
    # no field (or kernel) gains one later
    for q, m in ((2, 1), (5, 1), (4, 3), (3, 4)):
        F = base_field(q).extension(m, gen_name="v")
        before = set(vars(F)), set(vars(F._kernel))
        S = PolyRing(F, "s")
        f = S.poly([F.from_index(i % F.card) for i in (1, 0, 2, 3, 1)])
        g = S.poly([F.from_index(i % F.card) for i in (2, 1)])
        f * g, divmod(f, g), powmod(g, 9, f), poly_gcd(f, g)
        is_irreducible(f), roots_in_extension(f, 1), roots_in_extension(g, 2)
        F._kernel.sums()
        assert (set(vars(F)), set(vars(F._kernel))) == before


# --- designated roots without a field scan ----------------------------------

def _scan_first_root(F, coeffs):
    """The smallest index of a root in F of the polynomial with ascending
    coefficient indices coeffs, by evaluating it at every element."""
    for x in range(F.card):
        acc = 0
        for c in reversed(coeffs):
            acc = F._add(F._mul(acc, x), c)
        if acc == 0:
            return x
    return None


def _first_irreducible(K, m):
    """The deterministic modulus of degree m over K: the first monic
    irreducible in `monic_polys` order, by the reference field's test."""
    return next(f for f in monic_polys(PolyRing(K, "y"), m)
                if m == 1 or _reference(K).is_irreducible(_indices(f)))


def _check_designated_roots(F, chain_key):
    base = F.base
    assert F._key[2] == chain_key
    assert F.gen.index == _scan_first_root(
        F, [embed(c, F).index for c in F.modulus_over_base])
    if base.degree > 1:
        # the image of z, of index p in the base
        assert F._kernel.embedding(base.degree)[F.p] == \
            _scan_first_root(F, base._kernel.modulus_digits)


def _mod_key(f):
    return tuple(c.index for c in f.coeffs)


def _small_extensions():
    qs = [q for q in range(2, 65) if len(_prime_divisors(q)) == 1]
    return [(q, m) for q in qs for m in range(1, 13) if q ** m <= 2 ** 12]


@pytest.mark.parametrize("q, m", _small_extensions())
def test_designated_roots_match_a_field_scan(q, m):
    K = base_field(q)
    p = K.p
    # F_q itself is F_p or F_p[x]/(its own deterministic modulus)
    key = () if K.degree == 1 else \
        (_mod_key(_first_irreducible(base_field(p), K.degree)),)
    assert K._key[2] == key
    _check_designated_roots(K.extension(m), key + (
        _mod_key(_first_irreducible(K, m)),))


@pytest.mark.parametrize("q, d", [(2, 6), (3, 4), (4, 3), (8, 2), (9, 2)])
def test_kappa_2_designated_roots_match_a_field_scan(q, d):
    kappa = next(primes_of_degree(base_field(q), d)).kappa
    _check_designated_roots(kappa.extension(2), kappa._key[2] + (
        _mod_key(_first_irreducible(kappa, 2)),))
    assert kappa._kernel.distinct_roots([1, 0, 1])[0] == \
        _scan_first_root(kappa, [1, 0, 1])


def test_a_modulus_without_roots_has_none_and_is_refused():
    # (y^2 + y + 1)(y^3 + y + 1) = y^5 + y^4 + 1 has no root in F_32
    F32 = base_field(2).extension(5)
    assert F32._kernel.distinct_roots([1, 0, 0, 0, 1, 1]) == []
    assert _scan_first_root(F32, [1, 0, 0, 0, 1, 1]) is None
    with pytest.raises(DomainError, match="^defining modulus is reducible "
                       "over the base field$"):
        base_field(2).extension_with_modulus([1, 0, 0, 0, 1, 1], gen_name="r")


def test_a_reducible_modulus_with_roots_is_refused():
    # each has a root in the extension, which has fewer than deg distinct
    # conjugates: y^2 + y = y(y + 1) over F_2, y^2 - 1 and y^2 over F_3,
    # and T^2 + T + x^3 over F_256, which splits there
    F2, F3, F256 = base_field(2), base_field(3), base_field(256)
    for F, coeffs in [(F2, [0, 1, 1]), (F3, [-1, 0, 1]), (F3, [0, 0, 1]),
                      (F256, [F256.gen ** 3, 1, 1])]:
        with pytest.raises(DomainError, match="^defining modulus is reducible "
                           "over the base field$"):
            F.extension_with_modulus(coeffs, gen_name="r")
    # the degree-1 moduli y and y + 1 build F_2, generated by their root
    for coeffs, root in [([0, 1], 0), ([1, 1], 1)]:
        E = F2.extension_with_modulus(coeffs, gen_name="r")
        assert (E.card, E.gen.index) == (2, root)


def _draw_irreducible(draw, F, n):
    """A monic irreducible of degree n over F, as base indices: the first
    one by the kernel's test from a drawn candidate on, candidates in the
    order of a running index whose digit i is the coefficient of y^i."""
    Q = F.card
    start = draw(st.integers(0, Q ** n - 1))
    for c in chain(range(start, Q ** n), range(start)):
        f = [c // Q ** i % Q for i in range(n)] + [1]
        if n == 1 or F._kernel.is_irreducible(f):
            return f


def _over_the_extension(F, n, f):
    """The kernel of F_(Q^n), Q = |F|, and f over F moved into it."""
    K = _abs_tables(F.p, F.degree * n)
    emb = K.embedding(F.degree)
    return K, [emb[c] for c in f]


@st.composite
def _subfield_irreducible(draw):
    """(kernel of F_(Q^n), Q, g): g irreducible of degree n over F_Q, for Q
    in _ROOT_QS and Q^n within the cap."""
    Q = draw(st.sampled_from(_ROOT_QS))
    F = base_field(Q)
    n = draw(st.integers(1, _cap_exponent(Q)))
    return (*_over_the_extension(F, n, _draw_irreducible(draw, F, n)), Q)


@settings(max_examples=120, deadline=None)
@given(_subfield_irreducible())
def test_designated_root_is_the_least_root_of_an_irreducible(case):
    K, g, Q = case
    assert K.designated_root(g, Q) == K.distinct_roots(g)[0]


@st.composite
def _subfield_product_with_a_root(draw):
    """(kernel of F_(Q^n), Q, a*b, deg a): a and b irreducible over F_Q of
    degrees n1 | n2, n = n1 + n2, so the roots of a lie in F_(Q^n)."""
    Q = draw(st.sampled_from(_ROOT_QS))
    F = base_field(Q)
    n2 = draw(st.integers(1, _cap_exponent(Q) - 1))
    n1 = draw(st.sampled_from([k for k in range(1, n2 + 1)
                               if n2 % k == 0 and k + n2 <= _cap_exponent(Q)]))
    a, b = _draw_irreducible(draw, F, n1), _draw_irreducible(draw, F, n2)
    K, g = _over_the_extension(F, n1 + n2, F._kernel.mul_polys(a, b))
    return K, g, Q, n1


@settings(max_examples=120, deadline=None)
@given(_subfield_product_with_a_root())
def test_designated_root_refuses_a_product_with_a_root(case):
    K, g, Q, n1 = case
    assert K.one_root(g)[0] >= n1
    assert K.designated_root(g, Q) is None

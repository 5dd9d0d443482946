"""One contract for every field kernel.

Each public callable of `fields.IndexKernel` and its kinds, and the scalar
operations that every `FiniteField` takes from its kernel, is checked
against `reference.ReferenceField`, the table-free field of the kernel's
own modulus, on F_(p^k) with p <= 13 and p^k <= CARD_CAP: both kinds,
prime fields included.  Half the draws come from the boundaries: F_256
against F_512 and F_65536 (the 8- and 16-bit slots of the packed
characteristic-2 forms), F_243 and F_256 against F_343 and F_512
(`_SUMS_CARD_MAX`, past which `sum_copies` adds without its table), and
p = 13 (from which `_frobenius` takes its powers by `powmod`).
`frobenius_orbits` and `sums` draw fields of at most 2^12 and 2^8
elements.  Polynomials come in the
shapes the package multiplies and divides: dense, mostly zero, stretched by
a power of p, binomials, h's digit-mask shape, and Y(y^m)'s q ones.

A new kernel kind joins by being built for some field in `FIELDS`, and a
new public method by a case in `CASES`: the shape test at the end fails
until both are done.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drinfeld_deuring import fields
from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.fields import CARD_CAP, IndexKernel, \
    _least_irreducible
from drinfeld_deuring.modulus import _mask_exponents
from reference import ReferenceField, trim

FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 17)
          if p ** k <= CARD_CAP]
BOUNDARIES = [(2, 8), (2, 9), (2, 16), (3, 5), (7, 3), (13, 1), (13, 2)]
SCALARS = ("_add", "_neg", "_mul", "_inv", "_pow", "_root")
# name -> (check(name, K, R, data), the largest field it draws)
CASES = {}


def case(*names, max_card=CARD_CAP):
    def register(check):
        for name in names:
            CASES[name] = check, max_card
        return check
    return register


def kernels(max_card):
    def small(pks):
        return [pk for pk in pks if pk[0] ** pk[1] <= max_card]

    return st.one_of(st.sampled_from(small(BOUNDARIES)),
                     st.sampled_from(small(FIELDS))).map(
        lambda pk: fields._abs_tables(*pk))


def elements(K):
    return st.one_of(st.just(0), st.just(1), st.just(K.m1),
                     st.integers(0, K.m1))


def nonzero(K):
    return st.one_of(st.just(1), st.just(K.m1), st.integers(1, K.m1))


def powers_of(p, top):
    """The powers p^j, j >= 1, up to top."""
    out = [p]
    while out[-1] * p <= top:
        out.append(out[-1] * p)
    return out


@st.composite
def polys(draw, K, size=10, nonzero_=False):
    """An index list with no trailing zeros, `[]` allowed unless
    nonzero_: dense; mostly zero; a dense one stretched by a power of p; a
    binomial; nonzero on the exponents of the digit masks of a power q of
    p, as h is; or q ones at y^m, ..., y^(qm), as Y(y^m) is."""
    p = K.p
    shape = draw(st.sampled_from(
        ["dense", "sparse", "stretched", "binomial", "h", "Y"]))
    if shape == "dense":
        a = draw(st.lists(nonzero(K), max_size=size))
    elif shape == "sparse":
        a = draw(st.lists(st.one_of(st.just(0), elements(K)),
                          max_size=size))
    elif shape == "stretched":
        dense = draw(st.lists(nonzero(K), max_size=size // 2 + 1))
        step = draw(st.sampled_from(powers_of(p, 16)))
        a = [0] * (step * len(dense))
        a[::step] = dense
    elif shape == "binomial":
        n = draw(st.integers(1, 4 * size))
        a = [0] * (n + 1)
        a[draw(st.integers(0, n - 1))] = draw(nonzero(K))
        a[n] = draw(nonzero(K))
    elif shape == "h":
        q = draw(st.sampled_from(powers_of(p, 64)))
        exps = _mask_exponents(q, draw(st.integers(1, 3 if q <= 8 else 2)))
        a = [0] * (exps[-1] + 1)
        for e in exps:
            a[e] = draw(nonzero(K))
    else:
        q = draw(st.sampled_from(powers_of(p, 16)))
        m = draw(st.sampled_from([1, p]))
        a = [0] * (q * m + 1)
        a[m::m] = [1] * q
    trim(a)
    return a or ([draw(nonzero(K))] if nonzero_ else [])


def outcome(obj, name, *args):
    """obj.name(*args), or the type of the error that it raises."""
    try:
        return getattr(obj, name)(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)


def agree(K, R, name, *args):
    assert outcome(K, name, *args) == outcome(R, name, *args), (name, args)


def divisor_of(data, n):
    return data.draw(st.sampled_from([k for k in range(1, n + 1)
                                      if n % k == 0]))


# scalars --------------------------------------------------------------------

@case("_add", "_mul", "_neg", "_inv", "_pow")
def _(name, K, R, data):
    args = [data.draw(elements(K))]
    if name in ("_add", "_mul"):
        args.append(data.draw(elements(K)))
    elif name == "_pow":
        args.append(data.draw(st.one_of(st.integers(-3, 2 * K.card),
                                        st.integers(-(2 ** 40), 2 ** 40))))
    agree(K, R, name, *args)


@case("_root")
def _(name, K, R, data):
    # an n-th root for n | card - 1, and None exactly when there is none
    a = data.draw(elements(K))
    n = divisor_of(data, K.m1)
    r = K._root(a, n)
    if not a:
        assert r == 0
    elif R._pow(a, K.m1 // n) == 1:
        assert r is not None and R._pow(r, n) == a, (a, n, r)
    else:
        assert r is None, (a, n, r)


# polynomials ----------------------------------------------------------------

@case("add_polys", "sub_polys", "mul_polys")
def _(name, K, R, data):
    a, b = data.draw(polys(K)), data.draw(polys(K))
    if name != "mul_polys" and data.draw(st.booleans()):
        # b cancels the top of a from a drawn term up, or all of it
        cut = data.draw(st.integers(0, len(a)))
        b = trim(b[:cut] + [0] * (cut - len(b)) +
                 [y if name == "sub_polys" else R._neg(y) for y in a[cut:]])
    agree(K, R, name, a, b)
    agree(K, R, name, b, a)


@case("scale", "dilate")
def _(name, K, R, data):
    c, a = data.draw(elements(K)), data.draw(polys(K))
    agree(K, R, name, *((c, a) if name == "scale" else (a, c)))


@case("divmod_polys", "mod")
def _(name, K, R, data):
    a, b = data.draw(polys(K)), data.draw(polys(K, nonzero_=True))
    agree(K, R, name, a, b)
    # a product of b leaves no remainder
    agree(K, R, name, R.mul_polys(a, b), b)


@case("monic")
def _(name, K, R, data):
    agree(K, R, name, data.draw(polys(K, nonzero_=True)))


@case("gcd")
def _(name, K, R, data):
    # two multiples of a drawn common factor, not both zero
    c = data.draw(polys(K, 4, nonzero_=True))
    a, b = (R.mul_polys(data.draw(polys(K, 6)), c) for _ in "ab")
    agree(K, R, name, a or c, b)
    agree(K, R, name, b, a or c)


@case("powmod")
def _(name, K, R, data):
    # small exponents, those of root finding, and a refused negative one
    e = data.draw(st.one_of(st.integers(-2, 40), st.just(K.p),
                            st.just(K.card)))
    agree(K, R, name, data.draw(polys(K, 6)), e,
          data.draw(polys(K, 6, nonzero_=True)))


@case("compose_in_S")
def _(name, K, R, data):
    # q a power of p, F_q inside this field or not; q n about 200 at most
    q = data.draw(st.sampled_from(powers_of(K.p, 256)))
    coeffs = data.draw(st.lists(elements(K), max_size=max(200 // q, 2)))
    agree(K, R, name, coeffs, q)


@case("times_Y")
def _(name, K, R, data):
    # q a power of p, F_q inside this field or not, and a of length 1, at
    # most m (the copies do not meet), m + 1 to 2m (each meets its
    # neighbour), past 2m (three or more copies meet on a slot), or at the
    # edges m, m + 1, 2m and 2m + 1 between these
    q = data.draw(st.sampled_from(powers_of(K.p, 256)))
    top = max(2, 64 // q)
    m = data.draw(st.integers(1, top) | st.sampled_from(powers_of(K.p, top)))
    n = data.draw(st.one_of(
        st.just(1), st.integers(0, m), st.integers(m + 1, 2 * m),
        st.integers(2 * m + 1, 4 * m + 2),
        st.sampled_from([m, m + 1, 2 * m, 2 * m + 1])))
    a = data.draw(st.lists(elements(K), min_size=n, max_size=n))
    if a and not a[-1]:
        a[-1] = data.draw(nonzero(K))
    agree(K, R, name, a, m, q)


@case("powers")
def _(name, K, R, data):
    es = data.draw(st.lists(st.integers(-(2 ** 40), 2 ** 40), max_size=8))
    agree(K, R, name, data.draw(elements(K)), es)


@case("evaluate")
def _(name, K, R, data):
    # terms (e, c) of any int e, c an index here or, for a given k, of
    # F_(p^k) read through `embedding(k)`
    k = data.draw(st.sampled_from([None, divisor_of(data, K.degree)]))
    top = K.m1 if k is None else K.p ** k - 1
    term = st.tuples(st.integers(-9, 30), st.integers(1, top))
    rows = data.draw(st.lists(st.lists(term, max_size=5), max_size=4))
    x = data.draw(elements(K))
    lift = None if k is None else K.embedding(k)
    assert outcome(K, name, rows, x, k) == outcome(R, name, rows, x, lift)


@case("span")
def _(name, K, R, data):
    # a basis change's rows of multiples, in base b, b^len(rows) <= 256
    b = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(0, 3 if b == 1 else len(powers_of(b, 256))))
    rows = data.draw(st.lists(st.lists(elements(K), min_size=b,
                                       max_size=b), min_size=n, max_size=n))
    agree(K, R, name, rows)


@case("sums", max_card=fields._SUMS_CARD_MAX)
def _(name, K, R, data):
    table = K.sums()
    assert len(table) == K.card and {len(row) for row in table} == {K.card}
    for _ in range(20):
        i, j = data.draw(elements(K)), data.draw(elements(K))
        assert table[i][j] == R._add(i, j), (i, j)


@case("sum_copies")
def _(name, K, R, data):
    # dense and sparse maps, keys repeated across copies, negative shifts,
    # scales 1, -1 and others, and a copy followed by itself or its
    # negation, which double or cancel
    dense = st.lists(nonzero(K), max_size=12).map(
        lambda xs: dict(enumerate(xs)))
    sparse = st.dictionaries(st.integers(-40, 40), nonzero(K), max_size=6)
    copies = data.draw(st.lists(st.tuples(
        st.one_of(dense, sparse),
        st.one_of(st.just(1), st.just(K._neg(1)), nonzero(K)),
        st.integers(-20, 20)), max_size=6))
    if copies:
        u, c, shift = data.draw(st.sampled_from(copies))
        copies.append((u, data.draw(st.sampled_from([c, R._neg(c)])),
                       shift))
    agree(K, R, name, copies)


# slot vectors: each form is read back through `vector_list` -----------------

@case("vector", "vector_list", "vector_add", "vector_scale", "vector_place")
def _(name, K, R, data):
    # lists past 256 slots, so that a scale grows the kernel's row of ones
    # after shorter ones and reads a longer row after longer ones
    a = data.draw(polys(K, 300))
    if data.draw(st.booleans()):
        a.append(K.m1)  # the top index: every bit plane is set
    X, back = K.vector(a), K.vector_list
    if name in ("vector", "vector_list"):
        assert back(X) == a
    elif name == "vector_add":
        b = data.draw(polys(K, 40))
        assert back(K.vector_add(X, K.vector(b))) == R.add_polys(a, b)
        assert back(K.vector_add(X, X)) == R.add_polys(a, a)
    else:
        off = data.draw(st.integers(0, 300))
        placed = [0] * off + a if a else []
        assert back(K.vector_place(X, off)) == placed
        if name == "vector_scale":
            for c in (data.draw(elements(K)), K.m1):
                assert back(K.vector_scale(c, X)) == R.scale(c, a)
                assert back(K.vector_scale(c, K.vector_place(X, off))) == \
                    R.scale(c, placed)


# roots ----------------------------------------------------------------------

@st.composite
def rootless_quadratic(draw, K, R):
    """y^2 - c, c not a square, or in characteristic 2 y^2 + y + c, c of
    trace sum_j c^(2^j) = 1 to F_2: no root here."""
    if K.p > 2:
        return [R._neg(draw(st.integers(1, K.m1).filter(
            lambda c: R._pow(c, K.m1 // 2) != 1))), 0, 1]
    return [draw(st.integers(1, K.m1).filter(lambda c: functools.reduce(
        R._add, (R._pow(c, 2 ** j) for j in range(K.degree))) == 1)), 1, 1]


@st.composite
def with_roots(draw, K, R, degree=24, distinct=0):
    """(g, its distinct roots here, ascending), of degree about `degree` at
    most and `distinct` roots at least: c times (y - a)^e, the minimal
    polynomials over F_p of drawn elements, a quadratic with no root here,
    and, up to 2^8 elements, any factor, its roots found by a scan."""
    g, roots = [draw(nonzero(K))], set()
    for a in draw(st.lists(elements(K), min_size=distinct, max_size=4,
                           unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            g = R.mul_polys(g, [R._neg(a), 1])
        roots.add(a)
    for b in draw(st.lists(elements(K), max_size=2)):
        orbit = R.conjugates(b, K.p)
        if len(g) + len(orbit) <= degree:
            g = R.mul_polys(g, R.minimal_polynomial(b, K.p))
            roots.update(orbit)
    if draw(st.booleans()):
        g = R.mul_polys(g, draw(rootless_quadratic(K, R)))
    if K.card <= 256 and draw(st.booleans()):
        f = draw(polys(K, 4, nonzero_=True))
        g = R.mul_polys(g, f)
        roots.update(R.distinct_roots(f))
    return g, sorted(roots)


def frobenius_powers(K, R, g):
    """x^(p^j) mod g for j = 0, ..., degree, each the last one's p-th."""
    out = [R.mod([0, 1], g)]
    for _ in range(K.degree):
        out.append(R.powmod(out[-1], K.p, g))
    return out


@case("distinct_roots", "one_root")
def _(name, K, R, data):
    g, roots = data.draw(with_roots(K, R))
    if name == "distinct_roots":
        assert K.distinct_roots(g) == roots
    else:
        count, root = K.one_root(g)
        assert count == len(roots)
        assert root in roots if roots else root is None


@case("root_part")
def _(name, K, R, data):
    # P = gcd(x^card - x, g), one linear factor per root, and the
    # Frobenius powers of x below x^card
    g, roots = data.draw(with_roots(K, R, 8))
    P = [1]
    for r in roots:
        P = R.mul_polys(P, [R._neg(r), 1])
    assert K.root_part(g) == (P, 0, frobenius_powers(K, R, g)[:-1])


@case("split")
def _(name, K, R, data):
    # a root part with two roots or more, as `root_part` gives it
    g, _ = data.draw(with_roots(K, R, 8, distinct=2))
    frob = frobenius_powers(K, R, g)
    part = (R.gcd(R.sub_polys(frob.pop(), [0, 1]), g), 0, frob)
    assert K.split(part) == R.split(part)


@case("designated_root")
def _(name, K, R, data):
    # over a subfield F_Q: the least root of b's minimal polynomial, and
    # None for a product of two such, or, at Q = card, for a quadratic
    # with no root
    Q = K.p ** divisor_of(data, K.degree)
    b = data.draw(elements(K))
    g, want = R.minimal_polynomial(b, Q), min(R.conjugates(b, Q))
    shape = data.draw(st.sampled_from(["irreducible", "product", "rootless"]))
    if shape == "product":
        g = R.mul_polys(g, R.minimal_polynomial(data.draw(elements(K)), Q))
        want = None
    elif shape == "rootless" and Q == K.card:
        g, want = data.draw(rootless_quadratic(K, R)), None
    assert K.designated_root(g, Q) == want


@case("embedding")
def _(name, K, R, data):
    # z of F_(p^k)'s modulus goes to its least root here
    k = divisor_of(data, K.degree)
    emb = K.embedding(k)
    assert len(emb) == K.p ** k
    r = emb[K.p] if k > 1 else 1
    if k > 1:
        assert R.is_least_root(list(_least_irreducible(K.p, 1, k)), r, K.p)
    for c in data.draw(st.lists(st.integers(0, K.p ** k - 1), max_size=8)):
        # sum c_i r^i over the base-p digits c_i of c
        assert emb[c] == R.value(R.digits(c), r), (k, c)


@case("extension_root")
def _(name, K, R, data):
    # the least root here of the modulus over F_(p^k) of this field
    k = divisor_of(data, K.degree)
    emb = K.embedding(k)
    g = [emb[c] for c in _least_irreducible(K.p, k, K.degree // k)]
    assert R.is_least_root(g, K.extension_root(k), K.p ** k)


@case("is_irreducible")
def _(name, K, R, data):
    # degree 2 to 6 (3 past 2^8 elements), drawn often with f(0) = 0, as a
    # p-th power (a polynomial in y^p), or as a product
    top = 6 if K.card <= 256 else 3

    def coeffs(n):
        return data.draw(st.lists(elements(K), min_size=n, max_size=n)) + \
            [data.draw(nonzero(K))]

    shape = data.draw(st.sampled_from(["any", "f(0) = 0", "p-th power",
                                       "product"]))
    n = data.draw(st.integers(2, top))
    f = coeffs(n)
    if shape == "f(0) = 0":
        f[0] = 0
    elif shape == "p-th power" and K.p <= n:
        f = [0] * (K.p * (n // K.p) + 1)
        f[::K.p] = coeffs(n // K.p)
    elif shape == "product":
        m = data.draw(st.integers(1, n - 1))
        f = R.mul_polys(coeffs(m), coeffs(n - m))
    agree(K, R, name, f)


@case("frobenius_orbits", max_card=1 << 12)
def _(name, K, R, data):
    # the orbits of x -> x^q of length d, for q^d the card
    j = divisor_of(data, K.degree)
    agree(K, R, name, K.p ** j, K.degree // j)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_kernel_contract(name, data):
    check, max_card = CASES[name]
    K = data.draw(kernels(max_card))
    check(name, K, ReferenceField(K.p, K.modulus_digits), data)


def test_every_kernel_kind_and_public_callable_has_a_case():
    kinds = IndexKernel.__subclasses__()
    assert {type(fields._abs_tables(*pk)) for pk in FIELDS} == set(kinds)
    public = {name for kind in [IndexKernel, *kinds] for name in dir(kind)
              if not name.startswith("_") and callable(getattr(kind, name))}
    assert public | set(SCALARS) == set(CASES)
    assert all(callable(getattr(kind, name))
               for kind in kinds for name in SCALARS)

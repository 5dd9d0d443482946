"""Universal sequences u_i / U_i and the identities they satisfy."""

import functools
import itertools
import json
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_deuring.drinfeld import deuring_H, deuring_h_direct, \
    deuring_h_grec
from drinfeld_deuring.errors import CapExceededError, ConsistencyError, \
    DomainError
from drinfeld_deuring.fields import FieldElement, IndexKernel, base_field
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.laurent import LaurentRing, LaurentT
from drinfeld_deuring import universal
from drinfeld_deuring.modulus import (
    PrimeModulus, _mask_exponents, primes_of_degree, primes_up_to_degree,
    reduce_mod_prime, t_poly_ring,
)
from drinfeld_deuring.ore import qpow
from drinfeld_deuring.poly import Poly, PolyRing, _Dense, poly_gcd
from drinfeld_deuring.universal import (
    U_sequence, check_derivative_recursion, check_key_identity,
    check_simple_roots, check_u_zero,
    U_mod_prime, sequence_json, u_mod_prime, u_sequence, u_zero_value,
)
from reference import (
    H_by_closed_form, U_over_kappa_by_term_maps, check_simple_roots_generic,
    coprime_over_fraction_field, t_by_bits, tau, u_on_masks,
    u_over_kappa_by_term_maps,
)


def test_u_sequence_base_cases_and_oracle():
    F = base_field(2)
    seq = u_sequence(F, 2)
    assert render(seq[0]) == "1"
    assert render(seq[1]) == "s + T^2"
    assert render(seq[2]) == "s^3 + T*s^2 + T^4*s + T^6"


def _u_by_products(field, i_max):
    # the u-recursion with its factors in T multiplied out, as u_sequence
    # ran it before it applied them as shifts
    A = t_poly_ring(field)
    T, q = A.gen, field.card
    seq = [PolyRing(A, "s").one, Poly(PolyRing(A, "s"), (T ** q, A.one))]
    for i in range(1, i_max):
        qi = q ** i
        seq.append(seq[i].shifted(qi) + seq[i] * T ** (q * qi)
                   - seq[i - 1].shifted(qi) * (T ** qi - T))
    return seq[:i_max + 1]


@pytest.mark.parametrize("q, i_max", [(2, 7), (3, 5), (4, 4), (5, 3), (9, 3)])
def test_u_sequence_matches_the_multiplied_out_recursion(q, i_max):
    F = base_field(q)
    assert u_sequence(F, i_max) == _u_by_products(F, i_max)


@pytest.mark.parametrize("q, d", [(2, 5), (3, 3), (4, 3), (5, 2), (9, 2)])
def test_u_mod_prime_matches_reducing_u_sequence(q, d):
    # the term-map reduction against gamma on every coefficient of u_d
    F = base_field(q)
    for p in primes_up_to_degree(F, d):
        assert u_mod_prime(p) == reduce_mod_prime(u_sequence(F, p.d)[p.d], p)


def _poly_to_terms(f):
    # the term map of a polynomial over F_q[T][s]
    return {t * universal._T_STRIDE + s: c.index
            for s, row in enumerate(f.coeffs)
            for t, c in enumerate(row.coeffs) if c}


def test_u_terms_round_trip_through_polynomials():
    for q, i_max in ((2, 6), (3, 4), (9, 2)):
        F = base_field(q)
        terms = universal._u_terms(F, i_max)
        assert [_poly_to_terms(u)
                for u in u_sequence(F, i_max)] == terms
        assert all(all(terms_i.values()) for terms_i in terms)


def test_sum_copies_builds_the_addition_table_once(monkeypatch):
    for q in (2, 4, 5, 9):
        F = base_field(q)
        # the kernel's table is a tuple of tuples
        assert F._kernel.sums() == tuple(tuple(F._add(a, b) for b in range(q))
                                         for a in range(q))
    F = base_field(9)
    table = F._kernel.sums()
    monkeypatch.setattr(universal, "_u_cache", {})
    monkeypatch.setattr(universal, "_U_cache", {})

    def forbidden(*_args):
        raise AssertionError("the addition table was rebuilt")

    monkeypatch.setattr(F._kernel, "_add", forbidden)
    monkeypatch.setattr(F, "_add", forbidden)
    u, U = universal._u_terms(F, 3), universal._U_terms(F, 2)
    monkeypatch.undo()
    assert F._kernel.sums() is table
    assert u == [_poly_to_terms(f) for f in u_sequence(F, 3)]
    assert len(U) == 3 and all(all(terms.values()) for terms in U)


def test_universal_route_builds_no_polynomial_over_f_q_t(monkeypatch):
    # u_d is built, cached and read as term maps; polynomials over
    # F_q[T] exist only for u_sequence's callers
    p = next(iter(primes_of_degree(base_field(2), 6)))
    monkeypatch.setattr(universal, "_u_cache", {})
    monkeypatch.setattr(universal, "_t_cache", {})
    init = _Dense.__init__

    def checked(self, ring, coeffs):
        assert not isinstance(ring.base, PolyRing)
        init(self, ring, coeffs)

    monkeypatch.setattr(_Dense, "__init__", checked)
    h = u_mod_prime(p)
    monkeypatch.undo()
    assert h == reduce_mod_prime(u_sequence(p.field_q, p.d)[p.d], p)


def test_u_sequence_monic_degrees():
    for q in (2, 3, 4):
        F = base_field(q)
        seq = u_sequence(F, 4 if q == 2 else 3)
        for i, u in enumerate(seq):
            assert u.degree == (q ** i - 1) // (q - 1)
            assert render(u.lead) == "1"


def test_u_zero_closed_form():
    for q in (2, 3):
        F = base_field(q)
        for i in range(6):
            assert check_u_zero(F, i)
        assert render(u_zero_value(F, 2)) == f"T^{q * (q + 1)}"


def test_term_maps_refuse_s_exponents_past_the_key_stride():
    # at q = 65521, deg u_3 = q^2 + q + 1 = 4,293,066,963 is below 2^32,
    # and deg u_4 = 281,286,040,482,724 would carry into the T part of its
    # keys; u_3(0) = T^(q deg u_3) is compared without building the power
    F = base_field(65521)
    u = universal._u_terms(F, 3)
    assert max(k % universal._T_STRIDE for k in u[3]) == 4293066963
    assert check_u_zero(F, 3)
    steps = len(universal._u_cache[F])

    def unformed(q, i):
        raise AssertionError(f"a degree was formed at i = {i}")

    # i > 32 is refused before any degree is formed: q^(10^18) below would
    # never finish
    with pytest.raises(CapExceededError, match="^x_33 over F_2 "):
        universal._check_stride("x_{i}", 2, 33, unformed)
    refused = [(universal._u_terms, F, 4), (u_sequence, F, 4),
               (universal._U_terms, F, 2), (check_u_zero, F, 4),
               (check_key_identity, F, 3), (check_simple_roots_generic, F, 4),
               (check_derivative_recursion, F, 3),
               (universal._u_terms, base_field(2), 10 ** 18),
               (check_key_identity, base_field(2), 10 ** 18),
               # deg u_32 = 2^32 - 1 at q = 2, but the checks reach higher
               (check_key_identity, base_field(2), 32),
               (check_simple_roots_generic, base_field(2), 32)]
    for check, field, i in refused:
        with pytest.raises(CapExceededError, match="key stride"):
            check(field, i)
    assert len(universal._u_cache[F]) == steps
    U = universal._U_terms(F, 1)
    assert max(k % universal._T_STRIDE for k in U[1]) == 65521 ** 2 - 65521


def test_U_sequence_oracle_q2():
    F = base_field(2)
    seq = U_sequence(F, 2)
    assert render(seq[1]) == "s^2 + s + T^-1"
    # s^6 + s^5 + s^4 + s^3 + (s^4 + s^2)/T + (s^2 + s + 1)/T^3, per s-power
    assert render(seq[2]) == \
        "s^6 + s^5 + (1 + T^-1)*s^4 + s^3 + (T^-1 + T^-3)*s^2 + T^-3*s + T^-3"
    # degree q^(d+1) - q
    assert seq[2].degree == 6


def _U_by_qpow(field, i_max):
    # the U-recursion over F_q[T, 1/T][s] with its q-power factors raised by
    # qpow and multiplied out, as U_sequence ran it before term maps
    q = field.card
    A = t_poly_ring(field)
    L = LaurentRing(A)
    SL = PolyRing(L, "s")
    sq_minus_s = Poly(SL, (L.zero, -L.one) + (L.zero,) * (q - 2) + (L.one,))
    C = sq_minus_s ** (q - 1)
    U1 = C + SL.coerce(L.shift(1, q - 1))
    seq = [SL.one, U1]
    for i in range(1, i_max):
        fac = LaurentT(L, A.gen ** (q ** i) - A.gen, q ** (i + 1))
        seq.append(qpow(U1, q, i) * seq[i]
                   - SL.coerce(fac) * qpow(C, q, i - 1) * seq[i - 1])
    return seq[:i_max + 1]


@pytest.mark.parametrize("q, i_max", [(2, 6), (3, 4), (4, 3), (5, 3), (9, 2)])
def test_U_sequence_matches_the_qpow_recursion(q, i_max):
    F = base_field(q)
    assert U_sequence(F, i_max) == _U_by_qpow(F, i_max)


def test_U_terms_have_negative_T_exponents_and_no_zero_terms():
    F = base_field(3)
    U = universal._U_terms(F, 3)
    assert all(all(terms.values()) for terms in U)
    # U_1 = (s^3 - s)^2 + T^-2: three terms in s and one in 1/T
    assert U[1] == {2: 1, 4: 1, 6: 1, -2 * universal._T_STRIDE: 1}
    # the lowest T-power of U_i, i >= 2: T^(1 - q^i) times that of U_(i-2)
    assert [min(key // universal._T_STRIDE for key in terms)
            for terms in U] == [0, -2, -8, -28]


_U_PRIMES = {q: list(primes_up_to_degree(base_field(q), d))
             for q, d in ((2, 5), (3, 3), (4, 2), (5, 2), (9, 2))}
_U_REFERENCE = {q: _U_by_qpow(base_field(q), max(p.d for p in ps))
                for q, ps in _U_PRIMES.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_U_PRIMES)), st.data())
def test_U_mod_prime_matches_reducing_the_qpow_recursion(q, data):
    p = data.draw(st.sampled_from(_U_PRIMES[q]))
    assert U_mod_prime(p) == reduce_mod_prime(_U_REFERENCE[q][p.d], p)


def test_U_mod_prime_builds_no_laurent_polynomial(monkeypatch):
    # U_d is built, cached and reduced as term maps; polynomials over
    # F_q[T, 1/T] exist only for U_sequence's callers
    p = next(iter(primes_of_degree(base_field(2), 6)))
    monkeypatch.setattr(universal, "_U_cache", {})
    init = _Dense.__init__

    def checked(self, ring, coeffs):
        assert not isinstance(ring.base, (LaurentRing, PolyRing))
        init(self, ring, coeffs)

    monkeypatch.setattr(_Dense, "__init__", checked)
    H = U_mod_prime(p)
    monkeypatch.undo()
    assert H == reduce_mod_prime(U_sequence(p.field_q, p.d)[p.d], p)


@pytest.mark.parametrize("q, d", [(q, d) for q, ds in ((2, (1, 2, 6)),
                                                       (3, (1, 2, 4)),
                                                       (4, (1, 2, 3)),
                                                       (9, (1, 2, 3)))
                                  for d in ds])
def test_U_mod_prime_forms_one_product_per_step(monkeypatch, q, d):
    # P_i = U_i*Y(y^(q^i)) is formed once and feeds U_(i+1) and U_(i+2):
    # d products, each by mul_polys with Y(y^(q^i)), q ones, as an operand;
    # no kernel method shares U_i's row between two products
    p = next(iter(primes_of_degree(base_field(q), d)))
    want = U_mod_prime(p)
    calls = []
    real = IndexKernel.mul_polys

    def counted(self, a, b):
        calls.append((list(a), list(b)))
        return real(self, a, b)

    monkeypatch.setattr(IndexKernel, "mul_polys", counted)
    assert U_mod_prime(p) == want
    assert len(calls) == d
    for i, operands in enumerate(calls):
        Y = [0] * (q ** (i + 1) + 1)
        Y[q ** i::q ** i] = [1] * q
        assert Y in operands
    assert not any(hasattr(kind, "mul_each")
                   for kind in (IndexKernel, *IndexKernel.__subclasses__()))


def _sequence_json_reference(field, i_max):
    return {"q": field.card, "variant": "U", "i_max": i_max,
            "entries": [[render(c) for c in reversed(f.coeffs)]
                        for f in _U_by_qpow(field, i_max)]}


@pytest.mark.parametrize("q, i_max", [(2, 5), (3, 3), (4, 2), (9, 2)])
def test_sequence_json_of_U_is_byte_identical(q, i_max):
    F = base_field(q)
    assert json.dumps(sequence_json(F, "U", i_max), indent=2) == \
        json.dumps(_sequence_json_reference(F, i_max), indent=2)


def test_U_reduction_is_H():
    F = base_field(2)
    p = PrimeModulus(parse("T^2 + T + 1", t_poly_ring(F)))
    H = reduce_mod_prime(U_sequence(F, 2)[2], p)
    assert render(H) == "s^6 + s^5 + a*s^4 + s^3 + a*s^2 + s + 1"


def test_key_identity():
    F2, F3 = base_field(2), base_field(3)
    for i in range(4):
        assert check_key_identity(F2, i)
    for i in range(3):
        assert check_key_identity(F3, i)


def _key_identity_reference(field, i):
    # the identity with both sides multiplied by (s+1)^((q-1)*deg u_i) and
    # no common factor divided out: the form check_key_identity reduces
    if i < 0:
        raise DomainError("the substitution identity needs i >= 0")
    if i == 0:
        return True
    q = field.card
    seq = universal.u_sequence(field, i)
    ui, um = seq[i], seq[i - 1]
    A = ui.ring.base
    S = ui.ring
    T = A.gen
    s_plus_1 = Poly(S, (A.one, A.one))
    arg1 = Poly(S, (A.zero, -(T ** q))) * s_plus_1 ** (q - 1)
    P1 = ui(arg1)
    neg_t_sq = Poly(S, (A.zero,) * q + (-T,))

    def cleared_direct(u):
        n = u.degree
        b = s_plus_1 ** (q - 1)
        apow = S.one
        bpows = [S.one]
        for _ in range(n):
            bpows.append(bpows[-1] * b)
        acc = S.zero
        for j in range(n + 1):
            c = u.coeff(j)
            if c:
                acc = acc + apow * bpows[n - j] * c
            if j < n:
                apow = apow * neg_t_sq
        return acc

    P2 = cleared_direct(ui)
    P2m = cleared_direct(um)
    N = ui.degree
    qi = q ** i
    lhs = P1 * s_plus_1 ** ((q - 1) * N) \
        - P2 * s_plus_1 ** (qi - 1) * (T ** (qi - 1))
    rhs = -(P2m * s_plus_1 ** (qi - 1 + qi - q ** (i - 1))
            * ((T ** qi - T) * T ** (qi - 1)))
    return lhs == rhs


# the (q, i) pairs of verify's key-identity rows
_VERIFY_KEY_IDENTITY = [(q, i) for q in (2, 3, 4, 5, 7, 8, 9)
                        for i in range((3 if q == 2 else 2) + 1)]


@pytest.mark.parametrize("q, i", _VERIFY_KEY_IDENTITY)
def test_key_identity_agrees_with_the_uncancelled_form(q, i):
    F = base_field(q)
    assert check_key_identity(F, i) is _key_identity_reference(F, i) is True


def _key_identity_mutants(field, i):
    # single-coefficient changes (c_j -> c_j + T, which never cancels a
    # monic lead) to u_i and to u_{i-1}, and u_i with one s-power more and
    # with its lead dropped: the degree changes either way
    seq = u_sequence(field, i)
    T = seq[0].ring.base.gen
    for k in (i, i - 1):
        u = seq[k]
        for j in range(u.degree + 1):
            cs = list(u.coeffs)
            cs[j] = cs[j] + T
            yield k, Poly(u.ring, cs)
    ui = seq[i]
    yield i, ui + ui.ring.one.shifted(ui.degree + 1)
    yield i, Poly(ui.ring, ui.coeffs[:-1])


def _with_u_terms(monkeypatch, field, k, u):
    # universal._u_terms with u in place of u_k, for the check and for
    # the reference (through u_sequence) alike
    seq = universal._u_terms(field, k + 1)
    bad = seq[:k] + [u] + seq[k + 1:]
    monkeypatch.setattr(universal, "_u_terms",
                        lambda f, i_max: bad[:i_max + 1])


@pytest.mark.parametrize("q, i", [(q, i) for q, i in _VERIFY_KEY_IDENTITY
                                  if q <= 5 and i >= 1])
def test_key_identity_rejects_each_mutant_as_the_uncancelled_form(
        q, i, monkeypatch):
    F = base_field(q)
    for k, mutant in _key_identity_mutants(F, i):
        _with_u_terms(monkeypatch, F, k, _poly_to_terms(mutant))
        assert check_key_identity(F, i) is _key_identity_reference(F, i) \
            is False
        monkeypatch.undo()


_KEY_IDENTITY_CASES = [(q, i) for q, i in _VERIFY_KEY_IDENTITY if i >= 1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_KEY_IDENTITY_CASES), st.data())
def test_key_identity_matches_the_uncancelled_form_on_drawn_mutants(
        case, data):
    # zero to two terms c*T^t*s^j added to u_i or to u_{i-1}, up to one
    # s-power above its degree; u_{i-1} may empty, u_i may not (the
    # reference has no degree for it)
    q, i = case
    F = base_field(q)
    k = data.draw(st.sampled_from((i, i - 1)))
    u = dict(universal._u_terms(F, i)[k])
    deg = max(key % universal._T_STRIDE for key in u)
    for _ in range(data.draw(st.integers(0, 2))):
        key = (data.draw(st.integers(0, q ** (i + 1))) * universal._T_STRIDE
               + data.draw(st.integers(0, deg + 1)))
        x = F._add(u.get(key, 0), data.draw(st.integers(1, q - 1)))
        u.pop(key, None)
        if x:
            u[key] = x
    assume(u or k < i)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _with_u_terms(monkeypatch, F, k, u)
        assert check_key_identity(F, i) is _key_identity_reference(F, i)


def _comb_row(e, p):
    return {k: x for k in range(e + 1) if (x := comb(e, k) % p)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 64])
def test_lucas_rows_equal_comb_rows(monkeypatch, q):
    # every (s+1)^e row that verify's key-identity rows read at q, and
    # those of every e < 2q, against one big-int binomial per k
    F = base_field(q)
    exponents = set()
    lucas = universal._binomial_row

    def recorded(e, p):
        exponents.add(e)
        return lucas(e, p)

    monkeypatch.setattr(universal, "_binomial_row", recorded)
    for i in range(3):
        assert check_key_identity(F, i)
    monkeypatch.undo()
    for e in exponents | set(range(2 * q)):
        assert lucas(e, F.p) == _comb_row(e, F.p)


def test_key_identity_builds_no_polynomial_in_s_above_q_times_deg_u(
        monkeypatch):
    # at (q, i) = (9, 2), deg u_2 = 10: each copy of (s+1)^e reaches at most
    # s-degree 90 = q*N, where the uncancelled form reaches 170 = q*N +
    # (q-1)*N
    F = base_field(9)
    universal._u_terms(F, 2)
    degrees = []
    sum_copies = F._kernel.sum_copies

    def recorded(copies):
        copies = list(copies)
        degrees.extend((key + shift) % universal._T_STRIDE
                       for u, _c, shift in copies for key in u)
        return sum_copies(copies)

    monkeypatch.setattr(F._kernel, "sum_copies", recorded)
    assert check_key_identity(F, 2)
    monkeypatch.undo()
    assert max(degrees) == 90


_ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                "__pow__", "inverse")


def test_universal_checks_run_on_the_term_maps(monkeypatch):
    # u_i(0), the derivative recursion and the key identity read the term
    # maps of the recurrence: no polynomial over F_q[T] and no element
    # arithmetic
    cases = [(q, i) for q in (2, 3, 4, 9) for i in range(1, 3)]
    for q, _i in cases:
        universal._u_terms(base_field(q), 3)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("element arithmetic or F_q[T] polynomials")

    for name in _ELEMENT_OPS:
        monkeypatch.setattr(FieldElement, name, forbidden)
    monkeypatch.setattr(universal, "_terms_to_poly", forbidden)
    got = [(check_u_zero(base_field(q), i),
            check_derivative_recursion(base_field(q), i),
            check_key_identity(base_field(q), i)) for q, i in cases]
    monkeypatch.undo()
    assert got == [(True, True, True)] * len(cases)
    # and each check can fail: u_2 with two stray terms, 1 (which changes
    # u_2(0)) and T*s (whose derivative T breaks the recursion)
    F = base_field(3)
    u2 = dict(universal._u_terms(F, 2)[2])
    u2[universal._T_STRIDE + 1] = 1
    u2[0] = 1
    _with_u_terms(monkeypatch, F, 2, u2)
    assert not check_u_zero(F, 2)
    assert not check_derivative_recursion(F, 1)
    assert not check_key_identity(F, 2)


def _reduce_per_coefficient(f, p):
    # gamma on each coefficient, num/T^k as gamma(num) * alpha^(-k)
    ring = PolyRing(p.kappa, f.ring.var)
    if isinstance(f.ring.base, LaurentRing):
        return f.map_coeffs(lambda c: p.gamma(c.num) * p.alpha ** (-c.k), ring)
    return f.map_coeffs(p.gamma, ring)


@pytest.mark.parametrize("q, d", [(2, 5), (3, 3), (4, 3), (5, 2), (9, 2)])
def test_reduce_mod_prime_matches_reducing_each_coefficient(q, d):
    F = base_field(q)
    U, u = U_sequence(F, d), u_sequence(F, d)
    for p in primes_up_to_degree(F, d):
        H = reduce_mod_prime(U[p.d], p)
        assert H == _reduce_per_coefficient(U[p.d], p)
        assert H.ring == PolyRing(p.kappa, "s")
        assert reduce_mod_prime(u[p.d], p) == _reduce_per_coefficient(u[p.d], p)


_REDUCTION_PRIMES = {q: list(primes_up_to_degree(base_field(q), 2))
                     for q in (2, 3, 4, 9)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_REDUCTION_PRIMES)), st.data())
def test_reduce_mod_prime_of_laurent_values_matches_each_coefficient(q, data):
    F = base_field(q)
    A = t_poly_ring(F)
    L = LaurentRing(A)
    p = data.draw(st.sampled_from(_REDUCTION_PRIMES[q]))
    idx = st.integers(0, q - 1)
    coeffs = [L.shift(A.poly([F.from_index(c) for c in
                              data.draw(st.lists(idx, max_size=6))]),
                      data.draw(st.integers(-6, 6)))
              for _ in range(data.draw(st.integers(0, 6)))]
    f = Poly(PolyRing(L, data.draw(st.sampled_from(["s", "x"]))), coeffs)
    assert reduce_mod_prime(f, p) == _reduce_per_coefficient(f, p)


def test_derivative_recursion_holds_from_step_one():
    for q in (2, 3):
        F = base_field(q)
        for i in range(1, 5):
            assert check_derivative_recursion(F, i)
    with pytest.raises(DomainError):
        check_derivative_recursion(base_field(2), 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("i", [1, 2])
def test_derivative_recursion_reads_exponents_mod_p(q, i, monkeypatch):
    # a stray T*s^(3p) in u_(i+1) has derivative 3p*T*s^(3p-1) = 0, so the
    # check still holds; a stray T*s^(3p+1) has derivative T*s^(3p)
    F = base_field(q)
    for e, holds in ((3 * F.p, True), (3 * F.p + 1, False)):
        u = dict(universal._u_terms(F, i + 1)[i + 1])
        key = universal._T_STRIDE + e
        x = F._add(u.pop(key, 0), 1)
        if x:
            u[key] = x
        _with_u_terms(monkeypatch, F, i + 1, u)
        assert check_derivative_recursion(F, i) is holds
        monkeypatch.undo()


def test_u_exponents_are_0_or_1_mod_p():
    # u_0 = 1, u_1 = s + T^q, and each step shifts s-exponents by 0 or q^i,
    # a multiple of p: so the derivative's factor e mod p is 1 wherever the
    # p | e filter keeps a term (see check_derivative_recursion).  Over
    # verify's rows: i <= 4 for q <= 3, else i <= 2, reading u_(i+1).
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = base_field(q)
        for u in universal._u_terms(F, (4 if q <= 3 else 2) + 1):
            assert {k % universal._T_STRIDE % F.p for k in u} <= {0, 1}


def test_simple_roots_mod_p():
    F2 = base_field(2)
    R2 = t_poly_ring(F2)
    assert check_simple_roots(PrimeModulus(parse("T^2 + T + 1", R2)))
    assert check_simple_roots(PrimeModulus(parse("T^3 + T + 1", R2)))
    F3 = base_field(3)
    assert check_simple_roots(PrimeModulus(parse("T + 2", t_poly_ring(F3))))


# the (q, D) grid of the benchmark's verify sweep
_SWEEP_GRID = [(2, 6), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)]


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_U_mod_prime_over_kappa_matches_reducing_U_sequence(q, d):
    # the U-recurrence run over kappa against the generic U_d reduced mod p
    F = base_field(q)
    U = U_sequence(F, d)
    for p in primes_up_to_degree(F, d):
        assert U_mod_prime(p) == reduce_mod_prime(U[p.d], p)


_F2_PRIMES = {d: list(primes_of_degree(base_field(2), d))
              for d in range(1, 11)}


@functools.cache
def _generic_U_d(d):
    return U_sequence(base_field(2), d)[d]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_F2_PRIMES)), st.data())
def test_U_mod_prime_over_kappa_matches_the_generic_U_d_up_to_degree_10(
        d, data):
    p = data.draw(st.sampled_from(_F2_PRIMES[d]))
    assert U_mod_prime(p) == reduce_mod_prime(_generic_U_d(d), p)


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_separability_certificate_agrees_with_the_gcd(q, d):
    for p in primes_up_to_degree(base_field(q), d):
        h = u_mod_prime(p)
        assert check_simple_roots(p) is universal._certified(p, h) is \
            (poly_gcd(h, h.derivative()).degree == 0) is True


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_separability_certificate_rejects_mutants_of_h(q, d):
    # one changed coefficient (low, middle and top) and a zero constant
    # term, in place of the universal route's h
    for p in primes_up_to_degree(base_field(q), d):
        h = u_mod_prime(p)
        one = h.ring.one
        for j in (0, 1, h.degree // 2, h.degree):
            assert universal._certified(p, h + one.shifted(j)) is False
        zero_at_0 = Poly(h.ring, (p.kappa.zero,) + tuple(h.coeffs[1:]))
        assert universal._certified(p, zero_at_0) is False
        assert universal._certified(p, h) is True


# the q of the differential tests over kappa, each with every degree d
# of q^d <= 2^10, so kappa runs on both sides of the 2^8 elements up to
# which the reference's `sum_copies` adds by its table of sums
_KAPPA_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64)


@functools.cache
def _kappa_primes(q, d):
    return list(primes_of_degree(base_field(q), d))


@st.composite
def _kappa_prime(draw):
    q = draw(st.sampled_from(_KAPPA_QS))
    d = draw(st.integers(1, max(d for d in range(1, 11) if q ** d <= 1024)))
    return draw(st.sampled_from(_kappa_primes(q, d)))


@settings(max_examples=80, deadline=None)
@given(_kappa_prime())
def test_U_mod_prime_in_y_matches_the_term_map_reference(p):
    U = U_over_kappa_by_term_maps(p)
    idx = [0] * (max(U, default=-1) + 1)
    for e, c in U.items():
        idx[e] = c
    assert U_mod_prime(p) == p.s_ring.poly(p.kappa._elements(idx))


@settings(max_examples=80, deadline=None)
@given(_kappa_prime())
def test_u_on_masks_matches_the_term_map_reference(p):
    # the two recurrences over kappa that the certificate ran, and the
    # closed form it reads now, and the universal route
    u = u_over_kappa_by_term_maps(p)
    dense = [0] * (max(u) + 1)
    for e, c in u.items():
        dense[e] = c
    closed = p.kappa._kernel.powers(p.alpha.index,
                                    universal._t_closed_form(p.q, p.d))
    assert u_on_masks(p) == dense == p._on_exponents(closed) \
        == [c.index for c in u_mod_prime(p).coeffs]


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_h_lies_on_sums_of_distinct_powers_of_q(q, d):
    # the support of the closed form: at the first prime of degree d, every
    # nonzero exponent of h is sum_{j in m} q^j, m a d-bit mask
    p = next(primes_of_degree(base_field(q), d))
    sums = {sum(q ** j for j in range(d) if m >> j & 1) for m in range(2 ** d)}
    h = deuring_h_direct(p)
    assert {e for e, c in enumerate(h.coeffs) if c} <= sums


# the largest i at which verify reads generic u_i over F_q: its u_i rows
# (u-zero and the derivative recursion reach u_5 at q <= 3, else u_3), and
# the degrees of the sweep grid, of CI's verify commands and of the timed
# verify runs of ROADMAP, up to (2,12), (3,8), (4,7), (16,3) and (64,2)
_VERIFY_U_REACH = {2: 12, 3: 8, 4: 7, 5: 3, 7: 3, 8: 3, 9: 3, 13: 3, 16: 3,
                   25: 3, 64: 3}
# the largest i with (q+1)^i <= 4096 for the same q: generic U_i by its
# closed form, which has (q+1)^i terms; the sweep grid's degrees are within
_U_REACH = {q: max(i for i in range(13) if (q + 1) ** i <= 4096)
            for q in _VERIFY_U_REACH}


def _u_by_closed_form(q, i):
    # generic u_i as a term map, from `_t_closed_form`
    return {t * universal._T_STRIDE + e: 1 for t, e in
            zip(universal._t_closed_form(q, i), _mask_exponents(q, i))}


def _U_by_closed_form(q, i):
    # generic U_i as a term map, one key per digit word: the words' monomials
    # must be distinct
    U = {tau(q, w) * universal._T_STRIDE
         + (q - 1) * sum(wj * q ** j for j, wj in enumerate(w)): 1
         for w in itertools.product(range(q + 1), repeat=i)}
    assert len(U) == (q + 1) ** i
    return U


def test_t_closed_form_is_its_bitwise_definition():
    for q, i_max in _VERIFY_U_REACH.items():
        for d in range(i_max + 1):
            assert universal._t_closed_form(q, d) == \
                tuple(t_by_bits(q, d, m) for m in range(1 << d))


@pytest.mark.parametrize("q", sorted(_VERIFY_U_REACH))
def test_u_terms_equal_the_closed_form(q):
    u = universal._u_terms(base_field(q), _VERIFY_U_REACH[q])
    assert u == [_u_by_closed_form(q, i) for i in range(len(u))]
    # the mask m = 0 is u_i(0) = T^(q + ... + q^i), the u-zero row
    assert [universal._t_closed_form(q, i)[0] for i in range(len(u))] == \
        [q * universal._u_degree(q, i) for i in range(len(u))]


@pytest.mark.parametrize("q", sorted(_U_REACH))
def test_U_terms_equal_the_closed_form(q):
    U = universal._U_terms(base_field(q), _U_REACH[q])
    assert U == [_U_by_closed_form(q, i) for i in range(len(U))]


# prime powers past verify's grid as well, for the drawn forms
_FORM_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 32, 49, 64, 81, 125,
            128, 243, 256)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FORM_QS), st.data())
def test_the_closed_forms_hold_at_drawn_q_and_i(q, data):
    F = base_field(q)
    i = data.draw(st.integers(
        0, max(i for i in range(9) if q ** (i + 1) < 2 ** 31)))
    assert universal._u_terms(F, i)[i] == _u_by_closed_form(q, i)
    m = data.draw(st.integers(0, 2 ** i - 1))
    assert universal._t_closed_form(q, i)[m] == t_by_bits(q, i, m)
    j = data.draw(st.integers(
        0, max(j for j in range(9) if (q + 1) ** j <= 1024)))
    assert universal._U_terms(F, j)[j] == _U_by_closed_form(q, j)


def _h_by_closed_form(p):
    # sum_m alpha^(t(m)) s^(E(m)) by element powers, as kappa indices in s
    exps = _mask_exponents(p.q, p.d)
    out = [0] * (exps[-1] + 1)
    for m, e in enumerate(exps):
        out[e] = (p.alpha ** t_by_bits(p.q, p.d, m)).index
    return out


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_closed_form_h_equals_the_three_routes(q, d):
    for p in primes_up_to_degree(base_field(q), d):
        closed = _h_by_closed_form(p)
        for h in (deuring_h_direct(p), deuring_h_grec(p), u_mod_prime(p)):
            assert [c.index for c in h.coeffs] == closed


@pytest.mark.parametrize("q, d", _SWEEP_GRID)
def test_closed_form_H_equals_deuring_H_and_U_mod_prime(q, d):
    primes = [p for p in primes_up_to_degree(base_field(q), d)
              if (q + 1) ** p.d <= 4096]
    assert primes
    for p in primes:
        assert H_by_closed_form(p) == deuring_H(p, deuring_h_direct(p)) \
            == U_mod_prime(p)


@pytest.mark.parametrize("q, d", [(2, 4), (3, 3), (4, 2), (9, 2)])
def test_u_t_exponents_refuses_a_map_off_the_closed_form(q, d, monkeypatch):
    F = base_field(q)
    p = next(primes_of_degree(F, d))
    stride = universal._T_STRIDE
    u = universal._u_terms(F, d)[d]
    exps = _mask_exponents(q, d)
    t0, t1 = (universal._t_closed_form(q, d)[m] for m in (0, 1))
    rest = {k: c for k, c in u.items() if k != t0 * stride}
    doctored = [
        rest,  # a term short
        {**u, stride + exps[-1] + 1: 1},  # a term more
        {**rest, t0 * stride + exps[-1] + 1: 1},  # s^0 moved off the masks
        {**rest, (t1 + 1) * stride + exps[1]: 1},  # two terms at s^(E(1))
    ]
    if q > 2:
        doctored.append({**u, t0 * stride: 2})  # a coefficient not 1
    for bad in doctored:
        monkeypatch.setattr(universal, "_t_cache", {})
        _with_u_terms(monkeypatch, F, d, bad)
        with pytest.raises(ConsistencyError, match="digit masks"):
            u_mod_prime(p)
        monkeypatch.undo()
    monkeypatch.setattr(universal, "_t_cache", {})
    assert u_mod_prime(p) == deuring_h_direct(p)


def test_universal_route_reads_one_table_entry_per_mask(monkeypatch):
    # no reduction of u_d's terms (`IndexKernel.evaluate`, or
    # `PrimeModulus._reduce_terms` on it); the generic u_d is read once per
    # (q, d)
    primes = [next(primes_of_degree(base_field(q), d))
              for q, d in ((2, 6), (3, 4), (4, 3), (9, 2))]
    want = [deuring_h_direct(p) for p in primes]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("u_d was reduced term by term")

    for kind in (IndexKernel, *IndexKernel.__subclasses__()):
        if "evaluate" in vars(kind):
            monkeypatch.setattr(kind, "evaluate", forbidden)
    monkeypatch.setattr(PrimeModulus, "_reduce_terms", forbidden)
    monkeypatch.setattr(universal, "_t_cache", {})
    read = []
    real = universal._u_terms
    monkeypatch.setattr(universal, "_u_terms",
                        lambda f, i: read.append((f.card, i)) or real(f, i))
    got = [u_mod_prime(p) for p in primes] + [u_mod_prime(p) for p in primes]
    monkeypatch.undo()
    assert got == want + want
    assert read == [(2, 6), (3, 4), (4, 3), (9, 2)]


def _squared_factor_mutant(field, i):
    # u_i * (s + 1)^2, which shares the factor s + 1 with its derivative
    u = universal._u_terms(field, i)[i]
    return field._kernel.sum_copies(
        [(u, c, e) for e, c in _comb_row(2, field.p).items()])


def test_simple_roots_generic(monkeypatch):
    # the Casoratian certificate against the primitive pseudo-remainder
    # sequence it replaced, on u_i and on a squared-factor mutant of u_i
    for q, i_max in ((2, 5), (3, 4)):
        F = base_field(q)
        for i in range(i_max + 1):
            u = u_sequence(F, i)[i]
            assert check_simple_roots_generic(F, i) is \
                coprime_over_fraction_field(u, u.derivative()) is True
        for i in range(1, i_max + 1):
            _with_u_terms(monkeypatch, F, i, _squared_factor_mutant(F, i))
            u = u_sequence(F, i)[i]
            assert check_simple_roots_generic(F, i) is \
                coprime_over_fraction_field(u, u.derivative()) is False
            monkeypatch.undo()
    # u_1 = s meets the identity W_1 = -1, but u_1(0) = 0: the certificate
    # asks for u_i(0) != 0 as well
    F = base_field(2)
    _with_u_terms(monkeypatch, F, 1, {1: 1})
    assert check_simple_roots_generic(F, 1) is False


def test_sequence_json_layout():
    F = base_field(2)
    payload = sequence_json(F, "u", 2)
    assert payload["q"] == 2 and payload["variant"] == "u"
    assert payload["entries"][1] == ["1", "T^2"]
    assert payload["entries"][2][0] == "1"
    U = sequence_json(F, "U", 1)
    assert U["entries"][1][-1] == "T^-1"
    with pytest.raises(DomainError):
        sequence_json(F, "w", 1)


def test_sequences_need_designated_base():
    F4_as_ext = base_field(2).extension(2)  # q = 2, card 4
    with pytest.raises(DomainError):
        u_sequence(F4_as_ext, 1)

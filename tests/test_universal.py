"""Universal sequences u_i / U_i and the identities they satisfy."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.fields import base_field
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.laurent import LaurentRing, LaurentT
from drinfeld_deuring import universal
from drinfeld_deuring.modulus import (
    PrimeModulus, primes_of_degree, primes_up_to_degree, reduce_mod_prime,
    t_poly_ring,
)
from drinfeld_deuring.ore import qpow
from drinfeld_deuring.poly import Poly, PolyRing, _Dense
from drinfeld_deuring.universal import (
    U_sequence, check_derivative_recursion, check_key_identity,
    check_simple_roots, check_simple_roots_generic, check_u_zero,
    U_mod_prime, sequence_json, u_mod_prime, u_sequence, u_zero_value,
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


def test_u_terms_round_trip_through_polynomials():
    for q, i_max in ((2, 6), (3, 4), (9, 2)):
        F = base_field(q)
        terms = universal._u_terms(F, i_max)
        assert [universal._poly_to_terms(u)
                for u in u_sequence(F, i_max)] == terms
        assert all(all(terms_i.values()) for terms_i in terms)


def test_sum_copies_builds_the_addition_table_once(monkeypatch):
    for q in (2, 4, 5, 9):
        F = base_field(q)
        assert F._kernel.sums() == [[F._add(a, b) for b in range(q)]
                                    for a in range(q)]
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
    assert u == [universal._poly_to_terms(f) for f in u_sequence(F, 3)]
    assert len(U) == 3 and all(all(terms.values()) for terms in U)


def test_universal_route_builds_no_polynomial_over_f_q_t(monkeypatch):
    # u_d is built, cached and reduced as term maps; polynomials over
    # F_q[T] exist only for u_sequence's callers
    p = next(iter(primes_of_degree(base_field(2), 6)))
    monkeypatch.setattr(universal, "_u_cache", {})
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


@pytest.mark.parametrize("q, i", [(q, i) for q, i in _VERIFY_KEY_IDENTITY
                                  if q <= 5 and i >= 1])
def test_key_identity_rejects_each_mutant_as_the_uncancelled_form(
        q, i, monkeypatch):
    F = base_field(q)
    seq = u_sequence(F, i)
    for k, mutant in _key_identity_mutants(F, i):
        bad = seq[:k] + [mutant] + seq[k + 1:]
        monkeypatch.setattr(universal, "u_sequence",
                            lambda field, i_max: bad[:i_max + 1])
        assert check_key_identity(F, i) is _key_identity_reference(F, i) \
            is False
        monkeypatch.undo()


def test_key_identity_builds_no_polynomial_in_s_above_q_times_deg_u(
        monkeypatch):
    # at (q, i) = (9, 2), deg u_2 = 10: the uncancelled form reaches
    # s-degree 170 = q*N + (q-1)*N
    F = base_field(9)
    u_sequence(F, 2)
    degrees = []
    init = _Dense.__init__

    def recorded(self, ring, coeffs):
        init(self, ring, coeffs)
        if ring.var == "s":
            degrees.append(self.degree)

    monkeypatch.setattr(_Dense, "__init__", recorded)
    assert check_key_identity(F, 2)
    monkeypatch.undo()
    assert max(degrees) == 90


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


def test_simple_roots_mod_p():
    F2 = base_field(2)
    R2 = t_poly_ring(F2)
    assert check_simple_roots(PrimeModulus(parse("T^2 + T + 1", R2)))
    assert check_simple_roots(PrimeModulus(parse("T^3 + T + 1", R2)))
    F3 = base_field(3)
    assert check_simple_roots(PrimeModulus(parse("T + 2", t_poly_ring(F3))))


def test_simple_roots_generic():
    for q, imax in ((2, 3), (3, 2)):
        F = base_field(q)
        for i in range(1, imax + 1):
            assert check_simple_roots_generic(F, i)


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

"""Universal sequences u_i / U_i and the identities they satisfy."""

import pytest

from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.fields import base_field
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.laurent import LaurentRing
from drinfeld_deuring import universal
from drinfeld_deuring.modulus import (
    PrimeModulus, primes_of_degree, primes_up_to_degree, reduce_mod_prime,
    t_poly_ring,
)
from drinfeld_deuring.poly import Poly, PolyRing, _Dense
from drinfeld_deuring.universal import (
    U_sequence, check_derivative_recursion, check_key_identity,
    check_simple_roots, check_simple_roots_generic, check_u_zero,
    sequence_json, u_mod_prime, u_sequence, u_zero_value,
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

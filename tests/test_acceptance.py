"""Acceptance gate: the ten headline guarantees, all exact (zero tolerance).

Each test prints a single ``criterion N: PASS/FAIL`` line; run with ``-s``
(or ``-rP``) to see the lines for passing tests as well.
"""

import time

from drinfeld_deuring.drinfeld import (
    DeltaModule,
    check_g_structure,
    deuring_H,
    deuring_h_direct,
    deuring_h_grec,
    deuring_h_universal,
    is_supersingular,
)
from drinfeld_deuring.fields import base_field, embed
from drinfeld_deuring.grammar import parse
from drinfeld_deuring.isogeny_graph import build_supersingular_graph, \
    verify_component
from drinfeld_deuring.modulus import (
    PrimeModulus,
    primes_up_to_degree,
    reduce_mod_prime,
    t_poly_ring,
)
from drinfeld_deuring.multipoly import MultiRing
from drinfeld_deuring.poly import poly_gcd
from drinfeld_deuring.tower import all_identity_reports
from drinfeld_deuring.universal import (
    U_sequence,
    check_derivative_recursion,
    check_key_identity,
    check_u_zero,
)


def _report(n, ok, note=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {n}: {verdict}{suffix}")
    assert ok, f"criterion {n} failed{suffix}"


def _prime_set():
    out = []
    for q in (2, 3, 4):
        out.extend((q, p) for p in primes_up_to_degree(base_field(q), 3))
    out.extend((5, p) for p in primes_up_to_degree(base_field(5), 2))
    return out


_CACHE = {}


def _sweep():
    """(q, prime, h_direct, h_grec, h_universal, H, U_d mod p) per prime."""
    if "rows" not in _CACHE:
        t0 = time.perf_counter()
        rows = []
        for q, prime in _prime_set():
            h1 = deuring_h_direct(prime)
            h2 = deuring_h_grec(prime)
            h3 = deuring_h_universal(prime)
            H = deuring_H(prime, h1)
            U_red = reduce_mod_prime(
                U_sequence(prime.field_q, prime.d)[prime.d], prime)
            rows.append((q, prime, h1, h2, h3, H, U_red))
        _CACHE["rows"] = rows
        _CACHE["elapsed"] = time.perf_counter() - t0
    return _CACHE["rows"], _CACHE["elapsed"]


def test_criterion_01_three_way_agreement():
    rows, elapsed = _sweep()
    bad = [str(p.p_poly) for _q, p, h1, h2, h3, _H, _U in rows
           if not (h1 == h2 == h3)]
    ok = not bad and elapsed < 60.0
    _report(1, ok, f"{len(rows)} primes, {elapsed:.1f}s"
            + (f", mismatches: {bad}" if bad else ""))


def test_criterion_02_companion_polynomial():
    rows, _ = _sweep()
    bad = [str(p.p_poly) for _q, p, _h1, _h2, _h3, H, U_red in rows
           if H != U_red]
    _report(2, not bad, f"{len(rows)} primes"
            + (f", mismatches: {bad}" if bad else ""))


def test_criterion_03_h_shape():
    rows, _ = _sweep()
    bad = []
    for q, prime, h, _h2, _h3, _H, _U in rows:
        N = (q ** prime.d - 1) // (q - 1)
        if not (h.degree == N and h.lead == prime.kappa.one
                and h.constant_coeff()
                and poly_gcd(h, h.derivative()).degree == 0):
            bad.append(str(prime.p_poly))
    _report(3, not bad, f"{len(rows)} primes"
            + (f", failures: {bad}" if bad else ""))


def test_criterion_04_u_at_zero():
    checks = [(q, i) for q in (2, 3) for i in range(6)]
    bad = [(q, i) for q, i in checks if not check_u_zero(base_field(q), i)]
    _report(4, not bad, f"{len(checks)} cases"
            + (f", failures: {bad}" if bad else ""))


def test_criterion_05_key_identity():
    checks = [(2, i) for i in range(4)] + [(3, i) for i in range(3)]
    bad = [(q, i) for q, i in checks
           if not check_key_identity(base_field(q), i)]
    _report(5, not bad, f"{len(checks)} cases"
            + (f", failures: {bad}" if bad else ""))


def test_criterion_06_supersingular_graph():
    cases = [(q, p) for q, p in _prime_set()
             if (q == 2 and p.d <= 3) or (q == 3 and p.d <= 2)]
    bad = []
    for q, prime in cases:
        rep = verify_component(build_supersingular_graph(prime))
        expected = (q ** prime.d - 1) // (q - 1)
        if not (rep.size == expected and rep.q_regular and rep.closed
                and rep.connected):
            bad.append(str(prime.p_poly))
    _report(6, not bad, f"{len(cases)} graphs"
            + (f", failures: {bad}" if bad else ""))


def test_criterion_07_supersingularity_cross_check():
    prime = PrimeModulus(parse("T^2 + T + 1", t_poly_ring(base_field(2))))
    h = deuring_h_direct(prime)
    L = prime.kappa.extension(2)  # F_16
    gamma = embed(prime.alpha, L)
    supersingular = set()
    agree = True
    for delta in L.elements():
        if not delta:
            continue
        hv = L.zero
        for k, c in enumerate(h.coeffs):
            hv = hv + embed(c, L) * delta ** k
        ss = is_supersingular(DeltaModule(L, gamma, delta), prime)
        agree = agree and (ss == (not hv))
        if ss:
            supersingular.add(delta)
    ok = agree and len(supersingular) == 3 and L.one in supersingular
    _report(7, ok, f"15 values, {len(supersingular)} supersingular")


def test_criterion_08_g_structure():
    cases = [(q, p) for q, p in _prime_set() if p.d <= 2]
    bad = [str(prime.p_poly) for _, prime in cases
           if not check_g_structure(prime, deuring_h_direct(prime))]
    _report(8, not bad, f"{len(cases)} primes"
            + (f", failures: {bad}" if bad else ""))


def test_criterion_09_tower_identities():
    ok = True
    for q in (2, 3, 4):
        ok = ok and all(r.verified for r in all_identity_reports(q))
        # j-map degree, recomputed from the cleared numerator
        R = MultiRing(base_field(q), ("T", "s", "c"))
        T, s, c = R.gens()
        w = (s ** q - s) ** (q - 1)
        num = T ** q * (R.one + w) ** (q + 1) - c * (s ** q - s) ** (q * q - q)
        ok = ok and num.degree("s") == q ** 3 - q
    _report(9, ok, "12 identity checks + 3 degree checks")


def test_criterion_10_derivative_recursion():
    checks = [(q, i) for q in (2, 3) for i in range(1, 5)]
    bad = [(q, i) for q, i in checks
           if not check_derivative_recursion(base_field(q), i)]
    _report(10, not bad, f"{len(checks)} cases"
            + (f", failures: {bad}" if bad else ""))

"""Delta/lambda modules, supersingularity, and the three Deuring routes."""

import json
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld_deuring.drinfeld import (
    DeltaModule,
    LambdaModule,
    delta_from_lambda,
    deuring,
    deuring_H,
    deuring_g_sequence,
    deuring_h_direct,
    deuring_h_grec,
    deuring_h_universal,
    is_supersingular,
    j_invariant,
)
from drinfeld_deuring.errors import CapExceededError, ConsistencyError, \
    DomainError, RecurrenceBreakdownError
from drinfeld_deuring.fields import IndexKernel, base_field, embed
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.modulus import (
    PrimeModulus,
    primes_of_degree,
    primes_up_to_degree,
    reduce_mod_prime,
    t_poly_ring,
)
from drinfeld_deuring.ore import OreContext, drinfeld_image, ore_apply, \
    qpow
from drinfeld_deuring.poly import Poly, PolyRing, is_irreducible, \
    roots_in_extension
from drinfeld_deuring.universal import U_mod_prime
from reference import exact_div, g_lists_by_dense_horner


def _prime(q, text):
    return PrimeModulus(parse(text, t_poly_ring(base_field(q))))


P22 = _prime(2, "T^2 + T + 1")


def test_delta_module_rejects_zero():
    F4 = P22.kappa
    with pytest.raises(DomainError):
        DeltaModule(F4, P22.gamma(P22.p_poly.ring.gen), F4.zero)


def test_lambda_module_rejects_fq():
    F4 = P22.kappa
    gamma = P22.gamma(P22.p_poly.ring.gen)
    with pytest.raises(DomainError):
        LambdaModule(F4, gamma, F4.one)
    with pytest.raises(DomainError):
        delta_from_lambda(LambdaModule(F4, gamma, F4.zero))


def test_delta_from_lambda_q2():
    # lambda = alpha in F_4: (alpha^2 - alpha)^1 = 1, so Delta = gamma(T)
    F4 = P22.kappa
    gamma = P22.gamma(P22.p_poly.ring.gen)
    m = LambdaModule(F4, gamma, F4.gen)
    d = delta_from_lambda(m)
    assert d.delta == gamma
    # psi_T kills lambda for the derived Delta-module
    ctx = OreContext(F4, 2)
    assert not ore_apply(d.psi_T(ctx), m.lam)


def test_psi_T_factors():
    # psi_T = (Delta*tau - gamma)(tau - 1)
    F4 = P22.kappa
    gamma = P22.gamma(P22.p_poly.ring.gen)
    for delta in F4.elements():
        if not delta:
            continue
        m = DeltaModule(F4, gamma, delta)
        ctx = OreContext(F4, 2)
        left = ctx.op((-gamma, delta))
        right = ctx.op((-F4.one, F4.one))
        assert left * right == m.psi_T(ctx)


def test_j_invariant_examples():
    F4 = P22.kappa
    gamma = P22.gamma(P22.p_poly.ring.gen)  # = alpha
    # Delta = -gamma: numerator vanishes
    assert not j_invariant(DeltaModule(F4, gamma, -gamma))
    # q = 2, lambda = alpha, gamma = alpha: Delta = alpha, j = (alpha+alpha)^3/alpha = 0
    assert not j_invariant(LambdaModule(F4, gamma, F4.gen))


def test_j_invariant_lambda_delta_consistency():
    q = 3
    p = _prime(q, "T^2 + 1")
    L = p.kappa.extension(2)
    gamma = embed(p.gamma(p.p_poly.ring.gen), L)
    for lam in L.elements():
        if lam ** q == lam:
            continue
        m = LambdaModule(L, gamma, lam)
        assert j_invariant(m) == j_invariant(delta_from_lambda(m))


def test_is_supersingular_examples():
    # q = 2, p = T^2+T+1 over F_16
    L = P22.kappa.extension(2)
    gamma = embed(P22.gamma(P22.p_poly.ring.gen), L)
    one = L.one
    alpha = embed(P22.kappa.gen, L)
    assert is_supersingular(DeltaModule(L, gamma, one), P22)
    assert not is_supersingular(DeltaModule(L, gamma, alpha), P22)
    count = sum(1 for d in L.elements()
                if d and is_supersingular(DeltaModule(L, gamma, d), P22))
    assert count == 3


def test_is_supersingular_characteristic_mismatch():
    # gamma must kill p(T)
    L = P22.kappa
    with pytest.raises(DomainError):
        is_supersingular(DeltaModule(L, L.one, L.gen), P22)


def test_h_oracle_q2():
    h = deuring_h_direct(P22)
    assert render(h) == "s^3 + a*s^2 + a*s + 1"


def test_three_way_agreement_spot():
    for q, text in [(2, "T^3 + T + 1"), (3, "T^2 + 1"), (4, "T^2 + T + x"),
                    (5, "T + 2")]:
        p = _prime(q, text)
        h1 = deuring_h_direct(p)
        h2 = deuring_h_grec(p)
        h3 = deuring_h_universal(p)
        assert h1 == h2 == h3


def test_routes_share_the_ring_of_their_prime():
    p = _prime(3, "T^2 + 1")
    h = deuring_h_direct(p)
    results = [h, deuring_h_grec(p), deuring_h_universal(p), deuring_H(p, h),
               *deuring_g_sequence(p)]
    assert all(f.ring is p.s_ring for f in results)
    assert p.s_ring == PolyRing(p.kappa, "s")


def test_h_shape():
    for q, text in [(2, "T^2 + T + 1"), (3, "T^2 + T + 2"), (2, "T^3 + T^2 + 1")]:
        p = _prime(q, text)
        h = deuring_h_direct(p)
        N = (q ** p.d - 1) // (q - 1)
        assert h.degree == N and h.lead == p.kappa.one
        assert h.constant_coeff()
        from drinfeld_deuring.poly import poly_gcd
        assert poly_gcd(h, h.derivative()).degree == 0


def test_h_constant_term_value():
    # h(0) = gamma(T)^(qN), forced by u_d(0) = T^(q(q^d-1)/(q-1))
    for q, text in [(2, "T^2 + T + 1"), (3, "T + 1")]:
        p = _prime(q, text)
        h = deuring_h_direct(p)
        N = (q ** p.d - 1) // (q - 1)
        gamma = p.gamma(p.p_poly.ring.gen)
        assert h.constant_coeff() == gamma ** (q * N)


def test_g_sequence_structure():
    for q, text in [(2, "T^2 + T + 1"), (3, "T + 2")]:
        p = _prime(q, text)
        d = p.d
        gs = deuring_g_sequence(p)
        N = (q ** d - 1) // (q - 1)
        for k in range(d):
            assert not gs[k]
        assert gs[d].degree == N
        sign = -p.kappa.one if d % 2 else p.kappa.one
        assert gs[d].lead == sign
        # g_{2d} = Delta^(1 + q^2 + ... + q^(2d-2))
        e = sum(q ** (2 * i) for i in range(d))
        top = gs[2 * d]
        assert top.degree == e and top.lead == p.kappa.one
        assert all(not c for c in top.coeffs[:-1])
        # h | g_k for d <= k < 2d
        h = deuring_h_direct(p)
        for k in range(d, 2 * d):
            _, r = divmod(gs[k], h)
            assert not r


@pytest.mark.parametrize("q, d_max", [(2, 5), (3, 3), (4, 3), (5, 2)])
def test_truncated_image_matches_the_full_image(q, d_max):
    for p in primes_up_to_degree(base_field(q), d_max):
        d = p.d
        full = deuring_g_sequence(p)
        assert len(full) == 2 * d + 1
        assert deuring_g_sequence(p, d) == full[:d + 1]
        h = deuring_h_direct(p)
        assert h == (-full[d] if d % 2 else full[d])
        # h splits in kappa_2: its roots are supersingular, the first few
        # other nonzero elements of kappa_2 are not
        roots = roots_in_extension(h, 2)
        L = roots[0].field
        gamma = embed(p.alpha, L)
        for delta in set(roots):
            assert is_supersingular(DeltaModule(L, gamma, delta), p)
        others = [x for x in map(L.from_index, range(1, L.card))
                  if x not in set(roots)][:5]
        for delta in others:
            assert not is_supersingular(DeltaModule(L, gamma, delta), p)


def test_g_sequence_lengths_and_bounds():
    p = _prime(3, "T^2 + 1")
    full = deuring_g_sequence(p)
    for k in range(7):
        gs = deuring_g_sequence(p, k)
        assert len(gs) == k + 1
        assert gs == (full + [gs[0].ring.zero] * 3)[:k + 1]
    with pytest.raises(DomainError):
        deuring_g_sequence(p, -1)


def test_direct_route_builds_nothing_above_tau_d(monkeypatch):
    # at the first (2,10) prime, the coefficients above tau^d reach
    # Delta-degree (4^10 - 1)/3 = 349,525; the truncated image stops at
    # g_d, on d-bit masks, so no vector the kernel scales, adds or places
    # grows past 2^d slots
    from drinfeld_deuring import drinfeld

    p = next(iter(primes_of_degree(base_field(2), 10)))
    K = p.kappa._kernel
    seen = [0]

    def recorded(f):
        def run(*args):
            out = f(*args)
            seen[0] = max(seen[0], len(K.vector_list(out)))
            return out
        return run

    for name in ("vector_scale", "vector_add", "vector_place"):
        monkeypatch.setattr(K, name, recorded(getattr(K, name)))
    h = deuring_h_direct(p)
    monkeypatch.undo()
    assert h.degree == 2 ** 10 - 1
    assert seen[0] == 2 ** 10


def test_direct_route_checks_the_shape_of_g_d(monkeypatch):
    # g injected as index lists on digit masks: at q = 2 the masks are the
    # exponents, at q = 3 slot 2^d is past the top mask 2^d - 1
    from drinfeld_deuring import drinfeld

    for q, text in [(2, "T^3 + T + 1"), (3, "T^2 + 1")]:
        p = _prime(q, text)
        K = p.kappa._kernel
        good = drinfeld._g_lists(p, p.d)
        gd = good[-1]
        assert deuring_h_direct(p) == \
            drinfeld._h_from_gd(p, p._on_exponents(gd))
        for bad in (good[:-1] + [K.scale(p.alpha.index, gd)],
                    good[:-1] + [K.add_polys(gd, [0] * 2 ** p.d + [1])],
                    good[:-1] + [gd[:-1]],
                    [gd] + good[1:],
                    good[:-2] + [[1]] + good[-1:]):
            monkeypatch.setattr(drinfeld, "_g_lists",
                                lambda prime, k_max, g=bad: g)
            with pytest.raises(ConsistencyError):
                deuring_h_direct(p)
            monkeypatch.undo()


# every degree up to these, for the differential tests of the direct route
_IMAGE_DEGREES = {2: 8, 3: 5, 4: 4, 5: 3, 7: 2, 8: 2, 9: 2}


def _drawn_prime(q, data):
    # a prime of F_q[T] other than T, of a degree up to _IMAGE_DEGREES[q]
    A = t_poly_ring(base_field(q))
    d = data.draw(st.integers(1, _IMAGE_DEGREES[q]))
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    f = A.poly([A.base.from_index(i) for i in low] + [A.base.one])
    assume(f != A.gen and is_irreducible(f))
    return PrimeModulus(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_IMAGE_DEGREES)), st.data())
def test_g_sequence_matches_the_ore_image(q, data):
    # the image of p under psi_T in kappa[s]{tau}, by the generic Ore
    # product, cut or zero-padded to k + 1 entries
    p = _drawn_prime(q, data)
    f, d = p.p_poly, p.d
    k = data.draw(st.integers(0, 2 * d + 2))
    K, a = p.kappa, p.alpha
    R = PolyRing(K, "s")
    ctx = OreContext(R, q)
    psi = ctx.op((R.const(a), -(R.gen + a), R.gen))
    image = drinfeld_image(ctx, psi, f,
                           scalar=lambda c: R.const(K.embed_from_base(c)))
    assert image.degree == 2 * d
    ref = (list(image.coeffs) + [R.zero] * (k + 1))[:k + 1]
    assert deuring_g_sequence(p, k) == ref


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_IMAGE_DEGREES)), st.data())
def test_g_lists_on_masks_match_the_dense_reference(q, data):
    # the direct route's g_k on digit masks, placed on their exponents,
    # against Horner's rule on dense index lists in Delta
    from drinfeld_deuring import drinfeld

    p = _drawn_prime(q, data)
    k = data.draw(st.integers(0, 2 * p.d + 2))
    masks = drinfeld._g_lists(p, k)
    assert all(len(g) <= 2 ** i for i, g in enumerate(masks))
    assert [p._on_exponents(g) for g in masks] == \
        g_lists_by_dense_horner(p, k)


@pytest.mark.parametrize("q", sorted(_IMAGE_DEGREES))
def test_g_lists_on_masks_match_the_dense_reference_at_the_top_degree(q):
    # the largest d of each q, where hypothesis draws few primes; g_k does
    # not depend on k_max >= k, so k_max = 2d + 2 covers every smaller one
    from drinfeld_deuring import drinfeld

    d = _IMAGE_DEGREES[q]
    for p in islice(primes_of_degree(base_field(q), d), 2):
        assert [p._on_exponents(g) for g in drinfeld._g_lists(p, 2 * d + 2)] \
            == g_lists_by_dense_horner(p, 2 * d + 2)


def test_grec_continuation_matches_direct():
    # the generic recurrence, reduced mod p, reproduces the Ore image
    p = _prime(2, "T^3 + T + 1")
    gs = deuring_g_sequence(p)
    rec = grec_g_sequence(p, 2 * p.d)
    for k in range(2 * p.d + 1):
        assert gs[k] == reduce_mod_prime(rec[k], p)


def test_deuring_H_matches_U_reduction():
    for q, text in [(2, "T^2 + T + 1"), (3, "T + 1"), (2, "T^3 + T^2 + 1")]:
        p = _prime(q, text)
        r = deuring(p, method="universal")
        from drinfeld_deuring.universal import U_sequence
        U = U_sequence(p.field_q, p.d)[p.d]
        assert r.H == reduce_mod_prime(U, p)
        assert r.H.degree == q ** (p.d + 1) - q
        assert r.H.lead == p.kappa.one


def test_H_oracle_q2():
    r = deuring(P22, method="direct")
    assert render(r.H) == "s^6 + s^5 + a*s^4 + s^3 + a*s^2 + s + 1"


def test_H_roots_are_supersingular_lambdas():
    # every root of H lies outside F_q and gives a supersingular module
    from drinfeld_deuring.poly import roots_in_extension
    r = deuring(P22, method="direct")
    roots = roots_in_extension(r.H, 2)  # F_16 splits H here
    assert len(roots) == r.H.degree
    L = roots[0].field
    gamma = embed(P22.gamma(P22.p_poly.ring.gen), L)
    seen = set()
    for lam in roots:
        assert lam ** 2 != lam
        m = LambdaModule(L, gamma, lam)
        assert is_supersingular(m, P22)
        seen.add(delta_from_lambda(m).delta)
    assert len(seen) == 3


def test_deuring_H_rejects_corrupt_h():
    R = deuring_h_direct(P22).ring
    # h with h(0) = 0 must fail loudly
    bad = R.gen
    with pytest.raises(ConsistencyError):
        deuring_H(P22, bad)


def test_deuring_method_tags_and_json():
    r = deuring(P22, method="grec")
    d = r.to_json_dict()
    assert set(d) == {"q", "p", "d", "method", "h_coeffs", "H_coeffs"}
    assert d["q"] == 2 and d["d"] == 2 and d["method"] == "grec"
    assert d["p"] == "T^2 + T + 1"
    assert d["h_coeffs"] == ["1", "a", "a", "1"]
    assert len(d["H_coeffs"]) == 7
    json.dumps(d)  # serializable as-is
    with pytest.raises(DomainError):
        deuring(P22, method="magic")


def test_irreducible_T_rejected():
    with pytest.raises(DomainError):
        _prime(2, "T")
    with pytest.raises(DomainError):
        _prime(3, "T^2 + 1 + T + 2")  # T^2 + T: reducible


def test_out_of_cap_prime_fails_before_irreducibility(monkeypatch):
    from drinfeld_deuring import poly

    def unreachable(f):
        raise AssertionError("is_irreducible ran on an out-of-cap prime")

    monkeypatch.setattr(poly, "is_irreducible", unreachable)
    for text in ("T^17 + T^3 + 1", "T^255 + T^52 + 1", "T^1000 + T + 1"):
        with pytest.raises(CapExceededError):
            _prime(2, text)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 80))
def test_supersingular_iff_h_root_q3(idx):
    p = _prime(3, "T + 1")
    L = p.kappa.extension(2)  # F_9
    delta = L.from_index(idx % L.card)
    if not delta:
        return
    gamma = embed(p.gamma(p.p_poly.ring.gen), L)
    h = deuring_h_direct(p)
    hv = sum((embed(c, L) * delta ** k for k, c in enumerate(h.coeffs)), L.zero)
    assert is_supersingular(DeltaModule(L, gamma, delta), p) == (not hv)


def test_isogeny_invariance_of_supersingularity():
    # edge-connected vertices are both supersingular
    from drinfeld_deuring.isogeny_graph import build_supersingular_graph
    g = build_supersingular_graph(P22)
    gamma_q = g.ambient  # ambient field of the graph
    h = deuring_h_direct(P22)
    for (i, j), _ in g.edges.items():
        for v in (g.vertices[i], g.vertices[j]):
            hv = sum((embed(c, gamma_q) * v ** k for k, c in enumerate(h.coeffs)),
                     gamma_q.zero)
            assert not hv


def test_primes_catalog():
    F2 = base_field(2)
    ps = primes_up_to_degree(F2, 3)
    assert [render(p.p_poly) for p in ps] == \
        ["T + 1", "T^2 + T + 1", "T^3 + T + 1", "T^3 + T^2 + 1"]


# Horner in S = (s^q - s)^(q-1), the evaluation order deuring_H replaced;
# the references below keep it as the oracle for the base-q composition
def _S(ring, q):
    return (ring.gen ** q - ring.gen) ** (q - 1)


def _horner_in_S(coeffs, ring, q):
    S = _S(ring, q)
    acc = ring.zero
    for c in reversed(coeffs):
        acc = acc * S + ring.const(c)
    return acc


def _horner_H(prime, h):
    # gamma(T^q)^(-N) * sum_j h_j gamma(T)^j S^(N-j), term by term
    ring = PolyRing(prime.kappa, "s")
    S = _S(ring, prime.q)
    acc = ring.zero
    for j, c in enumerate(h.coeffs):
        acc = acc * S + ring.const(c * prime.alpha ** j)
    return acc * (prime.alpha ** prime.q) ** (-h.degree)


@st.composite
def _coefficient_lists(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    kappa = next(iter(primes_of_degree(base_field(q), 2))).kappa
    # lengths at and around q^k stress the base-q levels
    near_powers = [q ** k + e for k in range(1, 4) for e in (-1, 0, 1)
                   if q ** k + e <= 82]
    n = draw(st.sampled_from([1] + near_powers) | st.integers(0, 30))
    # mostly zero coefficients, so that interior and top zeros are common
    idx = st.integers(0, kappa.card - 1) | st.just(0)
    coeffs = [kappa.from_index(draw(idx)) for _ in range(n)]
    return q, kappa, coeffs


@settings(max_examples=120, deadline=None)
@given(_coefficient_lists())
def test_compose_in_S_matches_horner(case):
    q, kappa, coeffs = case
    ring = PolyRing(kappa, "s")
    got = kappa._kernel.compose_in_S([c.index for c in coeffs], q)
    # R(S) in s is R(Y) in y = s^(q-1): zero off the stride, R(Y) on it
    want = [c.index for c in _horner_in_S(coeffs, ring, q).coeffs]
    assert not any(want[i] for i in range(len(want)) if i % (q - 1))
    assert got == want[::q - 1]


@pytest.mark.parametrize("q, max_d", [(2, 4), (3, 3), (4, 2), (5, 2), (9, 2)])
def test_deuring_H_matches_horner_on_the_grid(q, max_d):
    for p in primes_up_to_degree(base_field(q), max_d):
        h = deuring_h_universal(p)
        assert deuring_H(p, h) == _horner_H(p, h)


# every degree up to (2,8) (3,5) (4,4) (5,3) (7,2) (8,2) (9,2)
_H_DEGREES = {2: 8, 3: 5, 4: 4, 5: 3, 7: 2, 8: 2, 9: 2}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_H_DEGREES)), st.data())
def test_deuring_H_matches_horner_at_drawn_primes(q, data):
    d = data.draw(st.integers(1, _H_DEGREES[q]))
    k = data.draw(st.integers(0, 40))
    primes = list(islice(primes_of_degree(base_field(q), d), k + 1))
    p = primes[k % len(primes)]
    h = deuring_h_grec(p)
    assert deuring_H(p, h) == _horner_H(p, h)


def test_deuring_H_matches_U_reduction_at_degree_12():
    p = next(iter(primes_of_degree(base_field(2), 12)))
    H = deuring_H(p, deuring_h_grec(p))
    assert H.degree == 2 ** 13 - 2
    assert H == U_mod_prime(p)


@pytest.mark.parametrize("q, d, count", [(16, 2, 2), (32, 2, 2), (64, 2, 2),
                                         (64, 1, 1), (256, 1, 1),
                                         (25, 2, 2), (27, 2, 2), (49, 2, 2),
                                         (81, 2, 2), (81, 1, 1), (243, 1, 1)])
def test_deuring_H_matches_U_reduction_at_large_q(q, d, count):
    # U_mod_prime runs the U-recurrence over kappa: an oracle independent of
    # the composition in S, whose levels here sum up to q parts
    for p in islice(primes_of_degree(base_field(q), d), count):
        assert deuring_H(p, deuring_h_grec(p)) == U_mod_prime(p)


def test_deuring_H_work_is_far_below_horner(monkeypatch):
    # nonzero x nonzero term pairs of every kappa product inside deuring_H.
    # Odd characteristic composes in y = s^(q-1), and its only products are
    # by Y(y^m) = y^m + ... + y^(qm): at q = 3, d = 6 Horner in x makes up
    # to about 3 N^2 pairs, the composition in y about 0.022 N^2.  In
    # characteristic 2 the packed form makes no product at all.
    pairs = []
    mul = IndexKernel.mul_polys

    def counted(self, a, b):
        pairs.append((len(a) - a.count(0)) * (len(b) - b.count(0)))
        return mul(self, a, b)

    monkeypatch.setattr(IndexKernel, "mul_polys", counted)
    p = next(iter(primes_of_degree(base_field(3), 6)))
    h = deuring_h_universal(p)
    N = h.degree
    pairs.clear()
    H = deuring_H(p, h)
    assert H.degree == 3 ** 7 - 3
    assert pairs and sum(pairs) < N * N / 10
    p = next(iter(primes_of_degree(base_field(2), 10)))
    h = deuring_h_universal(p)
    pairs.clear()
    H = deuring_H(p, h)
    assert H.degree == 2 ** 11 - 2
    assert pairs == []


# The coefficient recurrence run generically over F_q[T][Delta], as grec ran
# it before it moved to A/(p^2) = kappa[eps]/(eps^2).  There every division
# by T^(q^k) - T is exact in F_q[T] and is checked; the references below keep
# it as the oracle for grec, and `_dense_grec` as the oracle for the term maps.
def grec_g_sequence(prime, k_max):
    """[g_0, ..., g_{k_max}] of the generic recurrence as polynomials in
    Delta (the variable s) over F_q[T]."""
    F = prime.field_q
    A = t_poly_ring(F)
    out = []
    for g in _grec_terms(prime, k_max):
        rows = []
        for de in range(max(g, default=-1) + 1):
            terms = g.get(de, {})
            cs = [F.zero] * (max(terms, default=-1) + 1)
            for te, c in terms.items():
                cs[te] = F.from_index(c)
            rows.append(Poly(A, cs))
        out.append(Poly(PolyRing(A, "s"), rows))
    return out


def _grec_terms(prime, k_max):
    """g_0, ..., g_{k_max} as term maps {Delta exponent: {T exponent: c}}.

    Each c is the F_q index of a nonzero coefficient.  With omega = Delta + T
    and g_(-1) = 0, step k >= 1 is

        g_k * (T^(q^k) - T) = g_(k-1) * omega^(q^(k-1)) - g_(k-1)^(q) * omega
                              - g_(k-2) * Delta^(q^(k-2)) + g_(k-2)^(q^2) * Delta,

    the tau^k coefficient of psi_T * psi_p = psi_p * psi_T.  Frobenius fixes
    F_q, so g^(q^j) stretches both exponents by q^j and keeps every c, and the
    right side is a signed sum of shifted and stretched copies: no products.
    """
    F = prime.field_q
    q = prime.q
    add = [[F._add(a, b) for b in range(q)] for a in range(q)]
    same = list(range(q))
    neg = [F._neg(c) for c in range(q)]
    out = [{0: {e: c.index for e, c in enumerate(prime.p_poly.coeffs) if c}}]
    g2 = {}
    for k in range(1, k_max + 1):
        g1 = out[-1]
        num = {}
        # (term map, its sign, Delta stretch, Delta shift, T stretch, T shift)
        moves = [(g1, same, 1, q ** (k - 1), 1, 0),
                 (g1, same, 1, 0, 1, q ** (k - 1)),
                 (g1, neg, q, 1, q, 0),
                 (g1, neg, q, 0, q, 1)]
        if g2:
            moves += [(g2, neg, 1, q ** (k - 2), 1, 0),
                      (g2, same, q * q, 1, q * q, 0)]
        for g, sign, ds, dt, ts, tt in moves:
            for de, terms in g.items():
                row = num.setdefault(de * ds + dt, {})
                for te, c in terms.items():
                    t = te * ts + tt
                    row[t] = add[row.get(t, 0)][sign[c]]
        gk = {}
        for de, f in num.items():
            quot = _exact_div_terms(f, q ** k, add)
            if quot:
                gk[de] = quot
        g2 = g1
        out.append(gk)
    return out[:k_max + 1]


def _exact_div_terms(f, Q, add):
    """f / (T^Q - T) for a term map f {T exponent: F_q index}, Q = q^k.

    With L = Q - 1, T^Q - T = T * (T^L - 1), so the quotient's coefficient at
    i is f_(i+Q) + f_(i+Q+L) + ..., a descending running sum over one residue
    class mod L.  The division is exact iff f has no constant term and every
    class sums to zero; otherwise RecurrenceBreakdownError.  `add` is the
    addition table of the F_q indices.
    """
    if f.get(0):
        raise RecurrenceBreakdownError(
            f"division by T^{Q} - T: the dividend has a constant term")
    L = Q - 1
    quot = {}
    # per residue class mod L: the running sum and the exponent it last grew at
    sums, tops = {}, {}
    for e in sorted(f, reverse=True):
        c = f[e]
        if not c:
            continue
        r = e % L
        s = sums.get(r, 0)
        if s:
            # the quotient is s at every class position strictly above e - Q
            for i in range(tops[r] - Q, max(e - Q, -1), -L):
                quot[i] = s
        sums[r], tops[r] = add[s][c], e
    if any(sums.values()):
        raise RecurrenceBreakdownError(
            f"division by T^{Q} - T leaves a nonzero remainder")
    return quot


def _reference_h_grec(prime):
    """h = (-1)^d (g_d mod p), with g_d from the generic recurrence."""
    g = _grec_terms(prime, prime.d)[prime.d]
    rows = prime._reduce_terms((de, terms.items()) for de, terms in g.items())
    if prime.d % 2:
        rows = {de: prime.kappa._neg(c) for de, c in rows.items()}
    return prime._kappa_poly(rows)


@pytest.mark.parametrize("q, max_d", [(2, 8), (3, 5), (4, 4), (5, 3), (9, 2),
                                      (7, 2), (8, 2)])
def test_grec_matches_generic_reference(q, max_d):
    for p in primes_up_to_degree(base_field(q), max_d):
        assert deuring_h_grec(p) == _reference_h_grec(p)


# degrees at and just above those of the grid test
_GREC_DEGREES = {2: 9, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GREC_DEGREES)), st.data())
def test_grec_matches_generic_reference_on_drawn_primes(q, data):
    A = t_poly_ring(base_field(q))
    d = _GREC_DEGREES[q] - data.draw(st.integers(0, 2))
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    f = A.poly([A.base.from_index(i) for i in low] + [A.base.one])
    assume(f != A.gen and is_irreducible(f))
    p = PrimeModulus(f)
    assert deuring_h_grec(p) == _reference_h_grec(p)


def test_grec_checks_the_shape_of_g_d(monkeypatch, capsys):
    # a wrong scale or sign of w_0 = p'(alpha) scales h, so its leading
    # coefficient is no longer 1
    from drinfeld_deuring import cli

    reduce_terms = PrimeModulus._reduce_terms
    for q, text, scale in [(2, "T^3 + T + 1", "a"), (3, "T^2 + 1", "-1"),
                           (3, "T^2 + 1", "a"), (4, "T^2 + T + x", "a")]:
        p = _prime(q, text)
        c = parse(scale, PolyRing(p.kappa, "s")).constant_coeff()

        def scaled(self, rows, c=c):
            return {r: (self.kappa.from_index(x) * c).index
                    for r, x in reduce_terms(self, rows).items()}

        monkeypatch.setattr(PrimeModulus, "_reduce_terms", scaled)
        with pytest.raises(ConsistencyError):
            deuring_h_grec(p)
        assert cli.main(["compute", "--q", str(q), "--prime", text,
                         "--method", "grec"]) == 1
        assert capsys.readouterr().err.startswith("check failed:")
        monkeypatch.undo()
        assert deuring_h_grec(p) == deuring_h_universal(p)


@pytest.mark.parametrize("q, d", [(2, 12), (2, 13), (3, 8)])
def test_three_routes_agree_at_large_degree(q, d):
    p = next(iter(primes_of_degree(base_field(q), d)))
    assert deuring_h_grec(p) == deuring_h_direct(p) == deuring_h_universal(p)


# The recurrence as grec ran it on dense F_q[T][Delta] polynomials before it
# moved to term maps; the references below keep it as the oracle.
def _dense_grec(prime, k_max):
    field = prime.field_q
    q = prime.q
    A = t_poly_ring(field)
    D = PolyRing(A, "s")
    p = prime.p_poly
    out = [D.const(p)]
    if k_max >= 1:
        out.append(_dense_generic_g1(D, p))
    T = A.gen
    omega = Poly(D, (T, A.one))  # Delta + T
    delta = D.gen
    for k in range(2, k_max + 1):
        g1, g2 = out[k - 1], out[k - 2]
        num = g1 * qpow(omega, q, k - 1) - qpow(g1, q, 1) * omega \
            - g2 * qpow(delta, q, k - 2) + qpow(g2, q, 2) * delta
        div = T ** (q ** k) - T
        gk = num.map_coeffs(lambda c: exact_div(c, div), D)
        out.append(gk)
    return out[:k_max + 1]


def _dense_generic_g1(D, p):
    # tau-degree <= 1 part of psi_{p} over A[Delta], by the Horner pair
    # (psi^i)_0 = (psi^{i-1})_0 * T, (psi^i)_1 = (psi^{i-1})_0 * (-(Delta+T))
    #                                  + (psi^{i-1})_1 * T^q
    A = D.base
    T = A.gen
    q = A.base.card
    tq = T ** q
    neg_omega = Poly(D, (-T, -A.one))
    c0, c1 = D.one, D.zero
    pairs = [(c0, c1)]
    for _ in range(p.degree):
        c0, c1 = c0 * T, c0 * neg_omega + c1 * tq
        pairs.append((c0, c1))
    acc = D.zero
    for a, (_, c1) in zip(p.coeffs, pairs):
        if a:
            acc = acc + c1 * a
    return acc


@pytest.mark.parametrize("q, max_d", [(2, 5), (3, 3), (4, 3), (5, 2), (9, 2)])
def test_grec_g_sequence_matches_dense_recurrence(q, max_d):
    for p in primes_up_to_degree(base_field(q), max_d):
        assert grec_g_sequence(p, 2 * p.d) == _dense_grec(p, 2 * p.d)


def _terms(f):
    return {e: c.index for e, c in enumerate(f.coeffs) if c}


def _add_table(F):
    return [[F._add(a, b) for b in range(F.card)] for a in range(F.card)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9]), st.integers(1, 3), st.data())
def test_exact_div_terms_matches_exact_div(q, k, data):
    A = t_poly_ring(base_field(q))
    F = A.base
    Q = q ** k
    div = A.gen ** Q - A.gen
    # sparse quotients, some stretched by q^j as grec's are
    idx = st.integers(0, q - 1) | st.just(0) | st.just(0)
    g = A.poly([F.from_index(data.draw(idx))
                for _ in range(data.draw(st.integers(0, 40)))])
    g = qpow(g, q, data.draw(st.integers(0, 2)))
    f = g * div
    add = _add_table(F)
    assert _exact_div_terms(_terms(f), Q, add) == _terms(exact_div(f, div))
    assert _exact_div_terms(_terms(f), Q, add) == _terms(g)
    c = F.from_index(data.draw(st.integers(1, q - 1)))
    # a stray term anywhere; a constant term, alone or balanced within its
    # residue class mod q^k - 1; and a class that no longer sums to zero:
    # each leaves a remainder
    stray = data.draw(st.integers(0, max(f.degree, 0) + Q + 2))
    for bad in (f + A.gen ** stray * c, f + c, f + (A.gen ** (Q - 1) - 1) * c,
                f + A.gen ** (Q - 1) * c - A.gen ** (2 * Q - 2) * c * 2):
        with pytest.raises(DomainError):
            exact_div(bad, div)
        with pytest.raises(RecurrenceBreakdownError):
            _exact_div_terms(_terms(bad), Q, add)


def test_grec_never_divides_polynomials(monkeypatch):
    p = next(iter(primes_of_degree(base_field(2), 6)))
    h = deuring_h_universal(p)

    def unreachable(self, other):
        raise AssertionError("grec divided two polynomials")

    monkeypatch.setattr(Poly, "__divmod__", unreachable)
    assert deuring_h_grec(p) == h

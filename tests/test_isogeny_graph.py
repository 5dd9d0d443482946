"""Correspondence graph on supersingular Delta-invariants."""

import importlib.util
import json
import pathlib
import sys
import warnings
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring import drinfeld, isogeny_graph, poly, universal
from drinfeld_deuring.drinfeld import deuring_h_direct, deuring_h_universal
from drinfeld_deuring.errors import AmbientTooSmallError, ConsistencyError, \
    DomainError
from drinfeld_deuring.fields import IndexKernel, base_field, embed
from drinfeld_deuring.grammar import parse
from drinfeld_deuring.isogeny_graph import (
    build_supersingular_graph,
    neighbors,
    verify_component,
)
from drinfeld_deuring.modulus import PrimeModulus, primes_of_degree, \
    primes_up_to_degree, t_poly_ring
from drinfeld_deuring.poly import PolyRing, poly_gcd, roots_in_extension
import reference


def _prime(q, text):
    return PrimeModulus(parse(text, t_poly_ring(base_field(q))))


def _graph(q, text):
    return build_supersingular_graph(_prime(q, text))


def test_graphs_and_reports_hash_by_value():
    g1, g2 = _graph(2, "T^2+T+1"), _graph(2, "T^2+T+1")
    assert g1 is not g2
    assert g1 == g2 and hash(g1) == hash(g2)
    r1, r2 = verify_component(g1), verify_component(g2)
    assert r1 == r2 and hash(r1) == hash(r2)
    assert len({g1, g2}) == 1 and len({r1, r2}) == 1


def test_neighbors_rejects_zero():
    p = _prime(2, "T^2 + T + 1")
    with pytest.raises(DomainError):
        neighbors(p.kappa.zero, p, p.kappa)


def test_neighbors_ambient_too_small():
    # the single vertex of q = 3, p = T - 1 lives in F_3, but its neighbor
    # polynomial only splits over F_9
    p = _prime(3, "T + 2")
    g = _graph(3, "T + 2")
    assert g.ambient_degree == 2
    v = g.vertices[0]
    with pytest.raises(AmbientTooSmallError):
        neighbors(embed_down_or_self(v, p.kappa), p, p.kappa)


def embed_down_or_self(v, kappa):
    # vertices of the d=1 graphs are kappa-rational; re-express over kappa
    for c in kappa.elements():
        if embed(c, v.field) == v:
            return c
    raise AssertionError("vertex not kappa-rational")


def test_build_q2_d2():
    g = _graph(2, "T^2 + T + 1")
    assert len(g.vertices) == 3
    assert sum(g.edges.values()) == 6
    assert not g.stray_targets
    rep = verify_component(g)
    assert rep.ok
    assert rep.out_degree_histogram == {2: 3}
    assert rep.size == rep.expected_size == 3


@pytest.mark.parametrize("q,text,size", [
    (2, "T + 1", 1),
    (2, "T^2 + T + 1", 3),
    (2, "T^3 + T + 1", 7),
    (2, "T^3 + T^2 + 1", 7),
    (3, "T + 2", 1),
    (3, "T^2 + 1", 4),
    (3, "T^2 + T + 2", 4),
    (3, "T^2 + 2*T + 2", 4),
])
def test_component_sizes_and_regularity(q, text, size):
    g = _graph(q, text)
    rep = verify_component(g)
    assert rep.ok, rep.to_json_dict()
    assert rep.size == size == (q ** g.prime.d - 1) // (q - 1)


def test_single_vertex_all_self_loops():
    g = _graph(3, "T + 2")
    assert len(g.vertices) == 1
    assert g.edges == {(0, 0): 3}


def test_vertices_lie_in_quadratic_extension():
    # every vertex is fixed by the 2d-power Frobenius over F_q
    for q, text in [(2, "T^2 + T + 1"), (2, "T^3 + T + 1"), (3, "T^2 + 1")]:
        g = _graph(q, text)
        e = q ** (2 * g.prime.d)
        for v in g.vertices:
            assert v ** e == v


def test_edge_relation():
    # (D0 + gamma(T^q))^(q+1) / D0^q = (D1 + gamma(T))^(q+1) / D1 on each edge
    for q, text in [(2, "T^2 + T + 1"), (3, "T^2 + 1"), (2, "T^3 + T^2 + 1")]:
        g = _graph(q, text)
        gamma = embed(g.prime.alpha, g.ambient)
        for (i, j), _m in g.edges.items():
            d0, d1 = g.vertices[i], g.vertices[j]
            lhs = (d0 + gamma ** q) ** (q + 1) / d0 ** q
            rhs = (d1 + gamma) ** (q + 1) / d1
            assert lhs == rhs


def test_no_splitting_warning_for_these_primes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _graph(2, "T^2 + T + 1")
        _graph(3, "T^2 + T + 2")


def _edit_root_test(monkeypatch, edit):
    """Pass each answer of the walk's root test, at an ambient index x,
    through `edit(x, answer)`."""
    real = isogeny_graph._root_test

    def root_test(*args):
        is_root = real(*args)
        return lambda x: edit(x, is_root(x))

    monkeypatch.setattr(isogeny_graph, "_root_test", root_test)


def _root_test_of(h):
    """A stand-in for `isogeny_graph._root_test` that asks whether h, a
    polynomial over kappa, vanishes at the ambient index x."""
    rows = [[(e, c.index) for e, c in enumerate(h.coeffs) if c]]

    def root_test(prime, ambient):
        K, k = ambient._kernel, prime.kappa.degree
        return lambda x: not K.evaluate(rows, x, k)[0]

    return root_test


def _lose_a_root(monkeypatch, prime):
    """Make the root test miss the greatest root of h other than the walk's
    start, as if that root lay beyond kappa_2."""
    E = prime.kappa.extension(2)
    is_root = isogeny_graph._root_test(prime, E)
    start = isogeny_graph._first_root(prime, E, is_root)
    lost = max(i for i in range(1, E.card) if i != start and is_root(i))
    _edit_root_test(monkeypatch, lambda x, answer: answer and x != lost)


def _edit_neighbor_solve(monkeypatch, edit):
    """Pass each target list of the walk's neighbor solve through
    `edit(delta0, targets, calls)`, calls being the Delta0 solved for so
    far, this one included."""
    real = isogeny_graph._neighbor_solver

    def solver(*args):
        solve = real(*args)
        calls = []

        def edited(delta0):
            calls.append(delta0)
            return edit(delta0, solve(delta0), calls)

        return edited

    monkeypatch.setattr(isogeny_graph, "_neighbor_solver", solver)


def _drop_a_neighbor_hit(monkeypatch):
    """Make the neighbor solve lose the last target of the first vertex."""
    _edit_neighbor_solve(
        monkeypatch,
        lambda _d, targets, calls: targets[:-1] if len(calls) == 1
        else targets)


def test_splitting_beyond_kappa_2_is_a_check_failure(monkeypatch):
    # one root of h beyond kappa_2: the walk reaches only the other two
    _lose_a_root(monkeypatch, _prime(2, "T^2 + T + 1"))
    with pytest.raises(ConsistencyError, match="reached 2 of its 3 roots"):
        _graph(2, "T^2 + T + 1")


def test_repeated_root_of_h_is_a_check_failure(monkeypatch):
    # deg h roots with multiplicity, but only deg h - 1 distinct ones: the
    # walk, testing roots on this h, cannot reach deg h of them
    prime = _prime(2, "T^2 + T + 1")
    s = prime.s_ring.gen
    h = (s - prime.kappa.one) ** 2 * (s - prime.alpha)
    assert h.degree == 3
    monkeypatch.setattr(isogeny_graph, "_root_test", _root_test_of(h))
    with pytest.raises(ConsistencyError, match="reached [12] of its 3 roots"):
        build_supersingular_graph(prime)


def test_j_zero_off_h_at_odd_degree_is_a_check_failure(monkeypatch):
    prime = _prime(2, "T^3 + T + 1")
    start = (-embed(prime.alpha, prime.kappa.extension(2))).index
    _edit_root_test(monkeypatch, lambda x, answer: answer and x != start)
    with pytest.raises(ConsistencyError, match="-alpha .* not a root of h"):
        build_supersingular_graph(prime)


def test_h_with_no_root_in_kappa_2_is_a_check_failure(monkeypatch):
    # at even d over an odd F_q the start, a CM point, is not a root
    _edit_root_test(monkeypatch, lambda _x, _answer: False)
    with pytest.raises(ConsistencyError, match="CM point .* c = 1, gives no "
                       "root of h in kappa_2"):
        _graph(3, "T^2 + 1")


def test_h_with_no_root_in_a_scan_of_kappa_2_is_a_check_failure(monkeypatch):
    # with no c at which p is inert, the scan for a start finds nothing
    monkeypatch.setattr(isogeny_graph, "_inert", lambda _prime, _c: False)
    _edit_root_test(monkeypatch, lambda _x, _answer: False)
    with pytest.raises(ConsistencyError, match="^h has no root in kappa_2$"):
        _graph(3, "T^2 + 1")


def test_cm_point_off_h_is_a_check_failure(monkeypatch):
    prime = _prime(5, "T^2 + 2")
    E = prime.kappa.extension(2)
    c = next(c for c in range(5) if isogeny_graph._inert(prime, c))
    start = isogeny_graph._cm_point(prime, E, c)
    _edit_root_test(monkeypatch, lambda x, answer: answer and x != start)
    with pytest.raises(ConsistencyError, match=f"CM point .* c = {c}, gives "
                       "no root of h in kappa_2 at a prime of even degree 2"):
        build_supersingular_graph(prime)


def test_neighbor_root_beyond_kappa_2_is_a_check_failure(monkeypatch):
    _drop_a_neighbor_hit(monkeypatch)
    with pytest.raises(ConsistencyError, match="kappa_2, only 1 of 2"):
        _graph(2, "T^2 + T + 1")


def _unreachable(what):
    def unreachable(*_args, **_kwargs):
        raise AssertionError(f"the graph ran {what}")

    return unreachable


def test_graph_finds_roots_once(monkeypatch):
    # no root search: the walk starts at -alpha (odd d) or at a root found
    # by the root test (even d), and every other vertex comes from the walk
    primes = [_prime(2, "T^3 + T + 1"), _prime(2, "T^4 + T + 1")]
    for prime in primes:
        prime.kappa.extension(2)  # kappa_2's own designated root, first
    for name in ("one_root", "root_part", "split", "distinct_roots"):
        monkeypatch.setattr(IndexKernel, name, _unreachable(name))
    monkeypatch.setattr(poly, "roots_in_extension",
                        _unreachable("full root finding"))
    for prime in primes:
        assert verify_component(build_supersingular_graph(prime)).ok


@pytest.mark.parametrize("q,text", [(2, "T^3 + T + 1"), (2, "T^4 + T + 1"),
                                    (3, "T^3 + 2*T + 1"), (3, "T^2 + 1")])
def test_graph_builds_no_h(monkeypatch, q, text):
    # every h route, and the u-recurrence over kappa, raise; no polynomial
    # of degree deg h is built
    prime = _prime(q, text)
    want = build_supersingular_graph(prime)
    n = (q ** prime.d - 1) // (q - 1)
    for name in ("deuring_h_direct", "deuring_h_grec", "deuring_h_universal",
                 "deuring_g_sequence", "_g_lists", "_h_from_gd"):
        monkeypatch.setattr(drinfeld, name, _unreachable(name))
    for name in drinfeld._METHODS:
        monkeypatch.setitem(drinfeld._METHODS, name, _unreachable(name))
    for name in ("u_sequence", "u_mod_prime", "_u_t_exponents",
                 "_t_closed_form", "_certified"):
        monkeypatch.setattr(universal, name, _unreachable(name))
    # nor any polynomial arithmetic in the kernel, once kappa_2 is built
    for name in ("add_polys", "scale", "mul_polys", "divmod_polys", "gcd",
                 "powmod", "_frobenius_powers", "evaluate", "powers",
                 "sum_copies", "compose_in_S", "times_Y", "vector_scale"):
        for kind in (IndexKernel, *IndexKernel.__subclasses__()):
            if name in vars(kind):
                monkeypatch.setattr(kind, name, _unreachable(name))
    # every Poly is built by _Dense.__init__ or by poly._from_indices, which
    # no other module binds by name: the two patches below see them all
    assert [name for name, module in sys.modules.items()
            if name.startswith("drinfeld_deuring.")
            and name != "drinfeld_deuring.poly"
            and "_from_indices" in vars(module)] == []
    degrees = []
    real_init, real_from = poly._Dense.__init__, poly._from_indices

    def counted(self, ring, coeffs):
        real_init(self, ring, coeffs)
        degrees.append(len(self.coeffs) - 1)

    def counted_from(ring, idx):
        degrees.append(len(idx) - 1)
        return real_from(ring, idx)

    monkeypatch.setattr(poly._Dense, "__init__", counted)
    monkeypatch.setattr(poly, "_from_indices", counted_from)
    got = build_supersingular_graph(prime)
    assert got == want and got.to_json_dict() == want.to_json_dict()
    assert all(deg < n for deg in degrees)


def test_a_target_off_h_is_a_stray_and_is_not_walked(monkeypatch):
    good = _graph(3, "T^2 + 1")
    # the least nonzero ambient index that is not a root of h
    roots = {v.index for v in good.vertices}
    stray = next(i for i in range(1, good.ambient.card) if i not in roots)
    solved = []

    def edit(delta0, targets, calls):
        solved.append(delta0)
        # the first vertex's last target leaves the roots of h
        return targets[:-1] + [stray] if len(calls) == 1 else targets

    _edit_neighbor_solve(monkeypatch, edit)
    g = _graph(3, "T^2 + 1")
    assert stray not in solved
    assert g.vertices == good.vertices
    i = g.vertices.index(g.ambient.from_index(solved[0]))
    assert g.stray_targets == ((i, g.ambient.from_index(stray)),)
    rep = verify_component(g)
    assert not rep.closed and not rep.ok
    assert rep.to_json_dict()["closed"] is False
    assert rep.q_regular and rep.connected and rep.size == rep.expected_size


def test_a_walk_short_of_deg_h_is_a_check_failure(monkeypatch):
    # every target of every vertex is the vertex itself: the walk stays at
    # its first root
    _edit_neighbor_solve(monkeypatch,
                         lambda delta0, targets, _calls: [delta0] * len(targets))
    with pytest.raises(ConsistencyError, match="reached 1 of its 3 roots"):
        _graph(2, "T^2 + T + 1")


@pytest.mark.parametrize("q,dmax", [(2, 5), (3, 3), (4, 2), (5, 2), (9, 1)])
def test_every_graph_lives_in_kappa_2(q, dmax):
    for prime in primes_up_to_degree(base_field(q), dmax):
        g = build_supersingular_graph(prime)
        assert g.ambient_degree == 2
        assert g.ambient == prime.kappa.extension(2)
        assert verify_component(g).ok, prime


def _neighbor_gcd_cases():
    # (q, d) with kappa_2 under the cap
    return [(q, d) for q in (2, 3, 4, 5, 7, 8, 9) for d in (1, 2, 3)
            if q ** (2 * d) <= 2 ** 16]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_neighbor_gcd_cases()), st.data())
def test_neighbor_polynomial_is_separable(case, data):
    q, d = case
    prime = data.draw(st.sampled_from(
        list(islice(primes_of_degree(base_field(q), d), 3))))
    E = prime.kappa.extension(2)
    ring = PolyRing(E, "Y")
    Y = ring.gen
    delta0 = E.from_index(data.draw(st.integers(1, E.card - 1)))
    g_Tq = ring.const(embed(prime.alpha ** q, E))
    # the neighbor polynomial of isogeny_graph.neighbors
    c = -g_Tq * (Y + ring.one) ** (q - 1) * Y - ring.const(delta0)
    assert c.derivative() == -g_Tq * (Y + ring.one) ** (q - 2)
    assert c(-ring.one) == -ring.const(delta0)
    assert poly_gcd(c, c.derivative()) == ring.one


def _neighbors_by_root_finding(delta0, prime, ambient):
    """neighbors(delta0, prime, ambient) by finding the roots of the
    neighbor polynomial c in the ambient field, one vertex at a time."""
    q = prime.q
    ring = PolyRing(ambient, "Y")
    Y = ring.gen
    g_Tq = embed(prime.alpha ** q, ambient)
    c = -ring.const(g_Tq) * (Y + ring.one) ** (q - 1) * Y - ring.const(delta0)
    roots = roots_in_extension(c, 1)
    if len(roots) < q:
        raise AmbientTooSmallError(
            f"only {len(roots)} of {q} neighbor roots lie in the ambient field")
    g_T = embed(prime.alpha, ambient)
    return [-g_T * y ** q / (y + ambient.one) ** (q - 1) for y in roots]


def _small_kappa_2_primes():
    # every prime whose kappa_2 has at most 2^12 elements
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        dmax = 1
        while q ** (2 * dmax + 2) <= 2 ** 12:
            dmax += 1
        out += primes_up_to_degree(base_field(q), dmax)
    return out


def test_neighbor_solver_matches_root_finding_on_small_kappa_2():
    # the walk's neighbor solve, vertex by vertex
    primes = _small_kappa_2_primes()
    assert len(primes) == 148
    for prime in primes:
        g = build_supersingular_graph(prime)
        E = g.ambient
        solve = isogeny_graph._neighbor_solver(prime, E)
        assert [solve(v.index) for v in g.vertices] == [
            [t.index for t in _neighbors_by_root_finding(v, prime, E)]
            for v in g.vertices], prime


def _exhaustive_neighbor_primes():
    # the first prime of each degree whose kappa_2 has at most 2^13 elements
    return [next(primes_of_degree(base_field(q), d))
            for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
            for d in range(1, 7) if q ** (2 * d) <= 2 ** 13]


def _solved_both_ways(prime, E, deltas):
    """The neighbor solve at each of the distinct nonzero indices deltas,
    checked against the per-vertex elimination and the pass over E, and
    the text of `neighbors` at each one that has fewer than q targets.
    Returns the set of those short counts."""
    solve = isogeny_graph._neighbor_solver(prime, E)
    by_elimination = reference.neighbor_solve_by_elimination(prime, E)
    got = [solve(x) for x in deltas]
    assert got == [by_elimination(x) for x in deltas], prime
    assert got == reference.neighbor_pass(prime, E, deltas), prime
    short = set()
    for x, ts in zip(deltas, got):
        try:
            found = neighbors(E.from_index(x), prime, E)
        except AmbientTooSmallError as exc:
            assert len(ts) < prime.q
            assert str(exc) == f"only {len(ts)} of {prime.q} neighbor " \
                "roots lie in the ambient field"
            short.add(len(ts))
        else:
            assert [t.index for t in found] == ts
    return short


def test_neighbor_solve_matches_the_elimination_and_the_pass_on_kappa_2():
    # every nonzero Delta0, vertex or not: q targets, or only 0 or only 1
    primes = _exhaustive_neighbor_primes()
    assert len(primes) == 24
    short = set()
    for prime in primes:
        E = prime.kappa.extension(2)
        short |= _solved_both_ways(prime, E, list(range(1, E.card)))
    assert short == {0, 1}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
                        for d in (1, 2, 3, 4, 5) if q ** (3 * d) <= 2 ** 15]),
       st.data())
def test_neighbor_solve_matches_the_elimination_and_the_pass_on_kappa_3(
        case, data):
    q, d = case
    prime = data.draw(st.sampled_from(
        list(islice(primes_of_degree(base_field(q), d), 3))))
    E = prime.kappa.extension(3)
    deltas = data.draw(st.lists(st.integers(1, E.card - 1), min_size=1,
                                max_size=8, unique=True))
    _solved_both_ways(prime, E, deltas)


# the graph primes of CI: kappa_2 = F_(2^16), F_(3^8), F_(9^4), F_(3^10),
# F_(2^16) over F_256, F_(4^8), F_(2^14) (odd d, so the walk starts at
# j = 0) and F_(2^16) over F_256 again, whose least root of h is 10,266
# indices in
_CI_GRAPH_PRIMES = [(2, "T^8+T^4+T^3+T^2+1"), (3, "T^4+T+2"), (9, "T^2+T+x"),
                    (3, "T^5+2*T+1"), (16, "T^2+T+x^3"),
                    (4, "T^4+T^2+x*T+1"), (2, "T^7+T^6+T^4+T^2+1"),
                    (16, "T^2+(x^3+x^2+x)*T+x^3+1")]


def test_walk_matches_the_pass_and_root_finding():
    primes = _small_kappa_2_primes() + [_prime(q, t)
                                        for q, t in _CI_GRAPH_PRIMES]
    for prime in primes:
        h = deuring_h_universal(prime)
        walked = build_supersingular_graph(prime)
        from_h = reference.graph_by_walk_from_h(prime, h)
        passed = reference.graph_by_pass(prime, h)
        assert walked == from_h == passed, prime
        assert walked.to_json_dict() == passed.to_json_dict()
        assert walked.to_dot() == passed.to_dot()


def _graph_grid_primes(seeds):
    """The primes of the benchmark's `graph` workload at the given seeds."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.seeded_prime(seed, q, d) for seed in seeds
            for q, d in workloads.GRAPH_GRID]


def test_walk_matches_the_walk_from_h_on_the_graph_grid():
    for prime in _graph_grid_primes(range(3)):
        walked = build_supersingular_graph(prime)
        from_h = reference.graph_by_walk_from_h(prime,
                                                deuring_h_universal(prime))
        assert walked.vertices == from_h.vertices, prime
        assert walked.edges == from_h.edges, prime
        assert walked.stray_targets == from_h.stray_targets, prime


def _kappa_2_primes_up_to(card):
    # every prime whose kappa_2 has at most `card` elements
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32):
        d = 1
        while q ** (2 * d) <= card:
            out += primes_of_degree(base_field(q), d)
            d += 1
    return out


def test_root_test_is_h_vanishing_on_all_of_kappa_2():
    # at every x of kappa_2, for every prime with |kappa_2| <= 2^10
    primes = _kappa_2_primes_up_to(2 ** 10)
    assert len(primes) == 218
    for prime in primes:
        E = prime.kappa.extension(2)
        is_root = isogeny_graph._root_test(prime, E)
        vanishes = _root_test_of(deuring_h_universal(prime))(prime, E)
        assert not is_root(0)  # h(0) != 0
        assert [is_root(x) for x in range(1, E.card)] == [
            vanishes(x) for x in range(1, E.card)], prime


@pytest.mark.parametrize("q,text", [(2, "T^3 + T + 1"), (3, "T^2 + 1"),
                                    (4, "T^2 + T + x")])
def test_vertices_are_roots_of_h_and_not_of_h_plus_1(q, text):
    prime = _prime(q, text)
    g = build_supersingular_graph(prime)
    h = deuring_h_universal(prime)
    assert isogeny_graph.vertices_are_roots(g, h)
    assert not isogeny_graph.vertices_are_roots(g, h + prime.s_ring.one)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_j_zero_is_supersingular_exactly_at_odd_degree(q):
    # Delta = -alpha, j = 0, is a root of h exactly when d is odd; in kappa
    for d in range(1, 6):
        for prime in islice(primes_of_degree(base_field(q), d), 2):
            K = prime.kappa._kernel
            h = deuring_h_direct(prime)
            rows = [[(e, c.index) for e, c in enumerate(h.coeffs) if c]]
            value = K.evaluate(rows, (-prime.alpha).index)[0]
            assert (value == 0) == (d % 2 == 1), prime


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_neighbor_gcd_cases()), st.data())
def test_neighbors_match_root_finding(case, data):
    # an arbitrary nonzero Delta0, in kappa or kappa_2: fewer than q roots
    # raise on both sides
    q, d = case
    prime = data.draw(st.sampled_from(
        list(islice(primes_of_degree(base_field(q), d), 3))))
    m = data.draw(st.integers(1, 2))
    E = prime.kappa if m == 1 else prime.kappa.extension(2)
    delta0 = E.from_index(data.draw(st.integers(1, E.card - 1)))
    try:
        want = _neighbors_by_root_finding(delta0, prime, E)
    except AmbientTooSmallError as exc:
        with pytest.raises(AmbientTooSmallError) as info:
            neighbors(delta0, prime, E)
        assert str(info.value) == str(exc)
        return
    got = neighbors(delta0, prime, E)
    assert got == want
    assert all(t.field is E for t in got)


def test_json_shape():
    g = _graph(2, "T^2 + T + 1")
    d = g.to_json_dict()
    assert set(d) == {"q", "p", "d", "ambient_degree", "size", "vertices",
                      "edges", "stray_targets"}
    assert d["q"] == 2 and d["d"] == 2 and d["size"] == 3
    assert d["p"] == "T^2 + T + 1"
    assert len(d["vertices"]) == 3
    assert sum(m for _i, _j, m in d["edges"]) == 6
    assert d["edges"] == sorted(d["edges"])
    assert d["stray_targets"] == []
    json.dumps(d)


def test_dot_shape():
    g = _graph(3, "T + 2")
    dot = g.to_dot()
    assert dot.startswith("digraph supersingular {")
    assert dot.endswith("}\n")
    assert dot.count("v0 -> v0;") == 3
    assert 'v0 [label="' in dot


def test_deterministic_rebuild():
    a = _graph(2, "T^3 + T + 1")
    b = _graph(2, "T^3 + T + 1")
    assert a.to_json_dict() == b.to_json_dict()
    assert a.to_dot() == b.to_dot()


def _odd_even_degree_primes(count=None):
    """The primes of even degree over an odd F_q whose kappa_2 is within
    the cap: d = 2 for q <= 13, the first `count` of each q or all of
    them, and all 18 of d = 4 for q = 3."""
    return [prime for q, d in [(3, 2), (5, 2), (7, 2), (9, 2), (11, 2),
                               (13, 2), (3, 4)]
            for prime in islice(primes_of_degree(base_field(q), d),
                                count if d == 2 else None)]


def _p_of(prime, c):
    """p(c) for c in F_q, by the field's element arithmetic."""
    return sum((a * c ** e for e, a in enumerate(prime.p_poly.coeffs)),
               prime.field_q.zero)


def _is_square(x):
    return x ** ((x.field.card - 1) // 2) == x.field.one


def test_norm_criterion_gives_a_cm_start_at_every_odd_prime():
    # p(c) = N(alpha - c) for even d, so p(c) is a non-square in F_q exactly
    # when alpha - c is one in kappa; at d = 2, (q + 1)/2 values of c do
    primes = _odd_even_degree_primes()
    assert len(primes) == 221
    for prime in primes:
        F, q = prime.field_q, prime.q
        inert = [c for c in range(q) if isogeny_graph._inert(prime, c)]
        assert inert == [
            c for c in range(q)
            if not _is_square(prime.alpha - prime.gamma(F.from_index(c)))]
        assert inert == [c for c in range(q)
                         if not _is_square(_p_of(prime, F.from_index(c)))]
        assert inert, prime
        if prime.d == 2:
            assert len(inert) == (q + 1) // 2, prime


def test_every_odd_prime_under_the_cap_starts_at_a_cm_point(monkeypatch):
    # none reaches the scan: the CM point of the first inert c passes the
    # root test, and so does that of every other inert c
    monkeypatch.setattr(isogeny_graph, "_scanned_root",
                        _unreachable("the scan for a start"))
    for prime in _odd_even_degree_primes():
        E = prime.kappa.extension(2)
        is_root = isogeny_graph._root_test(prime, E)
        start = isogeny_graph._first_root(prime, E, is_root)
        points = [isogeny_graph._cm_point(prime, E, c)
                  for c in range(prime.q) if isogeny_graph._inert(prime, c)]
        assert start == points[0], prime
        assert all(x is not None and is_root(x) for x in points), prime


def test_cm_j_is_the_j_of_a_vertex_exactly_where_p_is_inert():
    # Gekeler: the module with CM by sqrt(T - c) is supersingular exactly
    # where p is inert, that is where p(c) is a non-square.  Its j is
    # (omega + omega^q)^(q+1) for omega^2 = alpha - c; the vertices' j is
    # (Delta + alpha)^(q+1) / Delta
    primes = _odd_even_degree_primes(10)
    assert len(primes) == 71
    for prime in primes:
        q, F = prime.q, prime.field_q
        g = build_supersingular_graph(prime)
        E = g.ambient
        a = embed(prime.alpha, E)
        js = {((v + a) ** (q + 1) / v).index for v in g.vertices}
        s = PolyRing(prime.kappa, "s").gen
        for c in range(q):
            gamma_c = prime.gamma(F.from_index(c))
            omega = roots_in_extension(s ** 2 - (prime.alpha - gamma_c), 2)[0]
            j = (omega + omega ** q) ** (q + 1)
            assert j.index == isogeny_graph._cm_j(prime, E, c)
            assert (j.index in js) == (not _is_square(
                _p_of(prime, F.from_index(c)))), (prime, c)


def test_the_scan_without_an_inert_c_gives_the_same_graph(monkeypatch):
    primes = _odd_even_degree_primes(2)
    want = [build_supersingular_graph(prime) for prime in primes]
    monkeypatch.setattr(isogeny_graph, "_inert", lambda _prime, _c: False)
    scans, real = [], isogeny_graph._scanned_root

    def scanned(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(isogeny_graph, "_scanned_root", scanned)
    for prime, g in zip(primes, want):
        got = build_supersingular_graph(prime)
        assert got == g and got.to_json_dict() == g.to_json_dict(), prime
    assert len(scans) == len(primes)


def _count_eliminations(monkeypatch):
    """Record each factorisation as [columns, right-hand sides solved]."""
    calls, real = [], isogeny_graph._eliminator

    def eliminator(K, columns):
        kernel, preimage = real(K, columns)
        call = [list(columns), []]
        calls.append(call)

        def counted(r):
            call[1].append(r)
            return preimage(r)

        return kernel, counted

    monkeypatch.setattr(isogeny_graph, "_eliminator", eliminator)
    return calls


def test_cm_start_at_the_graph_grid_9_2_prime(monkeypatch):
    # at most two of the q - 1 cosets of lam pass the norm test, so at
    # most two solves, each read for its kernel alone; one root test
    [prime] = [p for p in _graph_grid_primes([0]) if (p.q, p.d) == (9, 2)]
    E = prime.kappa.extension(2)
    solves, tests = _count_eliminations(monkeypatch), []
    is_root = isogeny_graph._root_test(prime, E)
    start = isogeny_graph._first_root(
        prime, E, lambda x: tests.append(x) or is_root(x))
    assert tests == [start] and is_root(start)
    assert 1 <= len(solves) <= 2
    assert all(rhs == [] for _columns, rhs in solves)


def _artin_schreier_columns(q, E):
    """The columns of A(V) = V^q - V at the basis z^i of E, by element
    arithmetic."""
    zs = [E.from_index(E.p ** i) for i in range(E.degree)]
    return [(z ** q - z).index for z in zs]


def test_graph_factors_the_neighbor_map_once(monkeypatch):
    # V^q - V is factored once per graph, the CM start adds at most two
    # factorisations, and each vertex costs one right-hand side: no
    # elimination per vertex, at j = 0 (odd d), at a CM point and after a
    # scan (even q), and at every benchmark graph prime of seed 0
    primes = [_prime(2, "T^3 + T + 1"), _prime(2, "T^4 + T + 1"),
              _prime(3, "T^4+T+2"), _prime(9, "T^2+T+x"),
              _prime(4, "T^4+T^2+x*T+1")] + _graph_grid_primes([0])
    calls = _count_eliminations(monkeypatch)
    for prime in primes:
        calls.clear()
        g = build_supersingular_graph(prime)
        A = _artin_schreier_columns(prime.q, g.ambient)
        [walk] = [rhs for columns, rhs in calls if columns == A]
        assert len(walk) == len(g.vertices), prime
        others = [rhs for columns, rhs in calls if columns != A]
        assert len(others) <= (2 if prime.d % 2 == 0 and prime.q % 2 else 0)
        assert all(rhs == [] for rhs in others), prime


def test_a_wrong_kernel_of_the_neighbor_map_is_a_check_failure(monkeypatch):
    # V^q - V has kernel F_q: an elimination that loses a kernel vector,
    # or finds one too many, is caught before any vertex is solved
    real = isogeny_graph._eliminator
    for edit in (lambda kernel: kernel[1:], lambda kernel: kernel + [1]):
        def eliminator(K, columns, edit=edit):
            kernel, preimage = real(K, columns)
            return edit(kernel), preimage

        monkeypatch.setattr(isogeny_graph, "_eliminator", eliminator)
        for q, text in [(2, "T^3 + T + 1"), (4, "T + x")]:
            with pytest.raises(ConsistencyError, match="V\\^q - V has a kernel"):
                _graph(q, text)

"""Correspondence graph on supersingular Delta-invariants."""

import json
import warnings

import pytest

from drinfeld_deuring.errors import AmbientTooSmallError, ConsistencyError, \
    DomainError
from drinfeld_deuring.fields import base_field, embed
from drinfeld_deuring.grammar import parse
from drinfeld_deuring.isogeny_graph import (
    build_supersingular_graph,
    neighbors,
    verify_component,
)
from drinfeld_deuring.modulus import PrimeModulus, t_poly_ring


def _prime(q, text):
    return PrimeModulus(parse(text, t_poly_ring(base_field(q))))


def _graph(q, text):
    return build_supersingular_graph(_prime(q, text))


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


def test_splitting_beyond_kappa_2_is_a_check_failure(monkeypatch):
    from drinfeld_deuring import isogeny_graph

    monkeypatch.setattr(isogeny_graph, "_split_roots", lambda h, max_m: (3, []))
    with pytest.raises(ConsistencyError):
        _graph(2, "T^2 + T + 1")


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

"""Directed correspondence graph on supersingular Delta-invariants.

For a vertex Delta0, every root Y of the neighbor polynomial

    c(Y) = -gamma(T^q) * (Y+1)^(q-1) * Y - Delta0

contributes the edge target

    Delta1 = -gamma(T) * Y^q / (Y+1)^(q-1).

Vertices are the roots of the Deuring polynomial h_{p(T)}.  Theory puts them
in kappa_2 = F_{q^(2d)}, the quadratic extension of kappa, and every root, of
h and of each c, is taken there; fewer than deg h roots of h, or fewer than q
of some c, is a ConsistencyError.  For d = 1, kappa itself is too small:
(Y+1)^(q-1) is 0 or 1 on F_q, so c has at most one root there.  Each c is
separable (see `neighbors`), but distinct Y-roots may map to the same Delta1,
so edges carry a multiplicity; out-degree counted with it is exactly q.

The roots of h come from root finding.  The roots of every c come from one
pass over the nonzero elements Y of kappa_2 (`_neighbor_pass`): Y is a root
of c exactly when f(Y) = -gamma(T^q) * (Y+1)^(q-1) * Y is Delta0, and both
f(Y) and Delta1(Y) are read off the logs of Y and Y+1.  The pass applies one
closed-form map per element, so a graph costs |kappa_2| table steps, however
many vertices it has.
"""

from dataclasses import dataclass, field

from .drinfeld import deuring_h_universal
from .errors import AmbientTooSmallError, ConsistencyError, DomainError
from .fields import FiniteField, embed
from .modulus import PrimeModulus, check_residue_degree
from .poly import roots_in_extension


def neighbors(delta0, prime, ambient):
    """Multiset of edge targets of delta0, as elements of the ambient field,
    in the index order of their Y-roots.

    AmbientTooSmallError unless the q roots of c lie in `ambient`.  They are
    distinct: c' = -gamma(T^q) * (Y+1)^(q-2) (-gamma(T)^2 when q = 2) can
    vanish only at Y = -1, where c(-1) = -delta0 != 0.
    """
    if not delta0:
        raise DomainError("Delta = 0 is never a vertex")
    delta0 = ambient.coerce(delta0)
    return ambient._elements(_edge_targets(prime, ambient, [delta0.index])[0])


def _edge_targets(prime, ambient, vertices):
    """The edge targets of each of the distinct nonzero ambient indices
    `vertices`, as lists of ambient indices; AmbientTooSmallError at the
    first vertex with fewer than q."""
    targets = _neighbor_pass(prime, ambient, vertices)
    q = prime.q
    for ts in targets:
        if len(ts) < q:
            raise AmbientTooSmallError(
                f"only {len(ts)} of {q} neighbor roots lie in the ambient "
                "field")
    return targets


def _neighbor_pass(prime, ambient, vertices):
    """The targets of each vertex, as lists of ambient indices, by one pass
    over the nonzero Y of the ambient field (see the module docstring).

    Y runs in ascending index order, the order in which root finding gives
    the roots of c.  f(0) = f(-1) = 0 is never a vertex, so those two Y are
    skipped.
    """
    q, K = prime.q, ambient._kernel
    log, exp, m1, add = K.log, K.exp, K.m1, K._add
    l_f = log[K._neg(embed(prime.alpha ** q, ambient).index)]
    l_g = log[K._neg(embed(prime.alpha, ambient).index)]
    e = q - 1
    hits = {v: [] for v in vertices}
    for y in range(1, K.card):
        y1 = add(y, 1)
        if y1:
            ly, ly1 = log[y], log[y1]
            ts = hits.get(exp[(l_f + e * ly1 + ly) % m1])
            if ts is not None:
                # Delta1 = -gamma(T) * Y^q / (Y+1)^(q-1)
                ts.append(exp[(l_g + q * ly - e * ly1) % m1])
    return [hits[v] for v in vertices]


@dataclass(frozen=True)
class IsogenyGraph:
    prime: PrimeModulus
    ambient: FiniteField
    ambient_degree: int
    vertices: tuple
    edges: dict = field(hash=False)  # (src index, dst index) -> multiplicity
    stray_targets: tuple  # (src index, value) pairs falling outside the vertex set

    def to_json_dict(self):
        from . import grammar

        return {
            "q": self.prime.q,
            "p": grammar.render(self.prime.p_poly),
            "d": self.prime.d,
            "ambient_degree": self.ambient_degree,
            "size": len(self.vertices),
            "vertices": [grammar.render(v) for v in self.vertices],
            "edges": [[i, j, m] for (i, j), m in sorted(self.edges.items())],
            "stray_targets": [[i, grammar.render(t)]
                              for i, t in self.stray_targets],
        }

    def to_dot(self):
        from . import grammar

        lines = ["digraph supersingular {"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{grammar.render(v)}"];')
        for (i, j), mult in sorted(self.edges.items()):
            lines.extend([f"  v{i} -> v{j};"] * mult)
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_supersingular_graph(prime):
    # kappa_2 is a residue field of degree 2d: one over the cap is refused
    # before h or any root is computed
    check_residue_degree(prime.q, 2 * prime.d)
    return _graph_from_h(prime, deuring_h_universal(prime))


def _graph_from_h(prime, h):
    """build_supersingular_graph at a prime whose kappa_2 is within the cap,
    from h = u_d mod p."""
    # built after h, since its tables would evict h's data from the caches
    ambient = prime.kappa.extension(2)
    verts = roots_in_extension(h, 2)
    if len(set(verts)) != h.degree:
        raise ConsistencyError(
            f"h of degree {h.degree} has {len(set(verts))} distinct roots "
            "in kappa_2")
    index = {v.index: i for i, v in enumerate(verts)}
    try:
        targets = _edge_targets(prime, ambient, list(index))
    except AmbientTooSmallError as exc:
        raise ConsistencyError(f"in kappa_2, {exc}") from None
    edges = {}
    strays = []
    for i, ts in enumerate(targets):
        for t in ts:
            j = index.get(t)
            if j is None:
                strays.append((i, ambient.from_index(t)))
            else:
                edges[i, j] = edges.get((i, j), 0) + 1
    return IsogenyGraph(prime, ambient, 2, tuple(verts), edges, tuple(strays))


@dataclass(frozen=True)
class ComponentReport:
    size: int
    expected_size: int
    out_degree_histogram: dict = field(hash=False)
    q_regular: bool
    closed: bool
    connected: bool

    @property
    def ok(self):
        return (self.q_regular and self.closed and self.connected
                and self.size == self.expected_size)

    def to_json_dict(self):
        return {
            "size": self.size,
            "expected_size": self.expected_size,
            "out_degree_histogram": {str(k): v for k, v in
                                     sorted(self.out_degree_histogram.items())},
            "q_regular": self.q_regular,
            "closed": self.closed,
            "connected": self.connected,
            "ok": self.ok,
        }


def verify_component(graph):
    """Size, q-regularity, closure and (undirected) connectivity of the graph."""
    n = len(graph.vertices)
    q = graph.prime.q
    d = graph.prime.d
    expected = (q ** d - 1) // (q - 1)
    outs = [0] * n
    for (i, _j), mult in graph.edges.items():
        outs[i] += mult
    for i, _t in graph.stray_targets:
        outs[i] += 1
    hist = {}
    for deg in outs:
        hist[deg] = hist.get(deg, 0) + 1
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in graph.edges:
        parent[find(i)] = find(j)
    connected = n > 0 and len({find(i) for i in range(n)}) == 1
    return ComponentReport(
        size=n,
        expected_size=expected,
        out_degree_histogram=hist,
        q_regular=n > 0 and hist == {q: n},
        closed=not graph.stray_targets,
        connected=connected,
    )

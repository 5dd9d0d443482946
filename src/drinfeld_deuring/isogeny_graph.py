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

The graph is walked from one root of h.  gcd(x^|kappa_2| - x, h) has one
linear factor per root of h in kappa_2, and one branch of its trace split
(`IndexKernel.split`) ends in a root.  The targets of a vertex come from a
linear solve: Y = -1 is never a root of c (c(-1) = -Delta0), so W = 1/(Y+1)
is defined, with Y = (1-W)/W and (Y+1)^(q-1) * Y = (1-W)/W^q.  c(Y) = 0
then reads -gamma(T^q) * (1-W) = Delta0 * W^q, that is

    a * W^q + W = 1,    a = -Delta0 / gamma(T^q),

and W -> a*W^q + W is F_p-linear.  An index's base-p digits are its
coordinates in the basis z^i, so the solve is an elimination on indices of
dimension [kappa_2 : F_p], and each solution gives the target
Delta1 = -gamma(T) * Y^q * W^(q-1).  The walk is breadth-first; each new
target is tested as a root of h by the kernel's `evaluate`, and one that
is not is a stray target, which is not walked on.  The walk must reach
all deg h roots: h is separable, so this shows that the graph is connected
and that every root was found.
"""

from dataclasses import dataclass, field

from .drinfeld import deuring_h_universal
from .errors import AmbientTooSmallError, ConsistencyError, DomainError
from .fields import FiniteField, embed
from .modulus import PrimeModulus, check_residue_degree


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
    targets = _neighbor_solver(prime, ambient)(delta0.index)
    return ambient._elements(_checked(targets, prime.q))


def _checked(targets, q):
    if len(targets) < q:
        raise AmbientTooSmallError(
            f"only {len(targets)} of {q} neighbor roots lie in the ambient "
            "field")
    return targets


def _neighbor_solver(prime, ambient):
    """The map from a nonzero ambient index Delta0 to the indices of its
    edge targets, in ascending index order of their Y-roots, by solving
    a * W^q + W = 1 (see the module docstring)."""
    q, K = prime.q, ambient._kernel
    p, add, neg, mul, inv = K.p, K._add, K._neg, K._mul, K._inv
    # z^i has index p^i; its column is a * (z^i)^q + z^i
    basis = [p ** i for i in range(K.degree)]
    # the leading digit of v != 0 sits at top[v.bit_length()] or one below
    top = [0] + [sum(x < 1 << b for x in basis) - 1
                 for b in range(1, K.card.bit_length() + 1)]
    bq = [K._pow(b, q) for b in basis]
    # a = Delta0 * f and Delta1 = g * Y^q * W^(q-1) (module docstring)
    f = inv(neg(embed(prime.alpha ** q, ambient).index))
    g = neg(embed(prime.alpha, ambient).index)
    minus_one = neg(1)

    def reduce(v, w, pivots):
        # v = L(w) - r: clear v's leading digits while a pivot row has them;
        # returns v, w and the position of v's leading digit
        while v:
            pos = top[v.bit_length()]
            if v < basis[pos]:
                pos -= 1
            row = pivots.get(pos)
            if row is None:
                return v, w, pos
            dv, dw = row[v // basis[pos]]
            v, w = add(v, dv), add(w, dw)
        return 0, w, None

    def solve(delta0):
        a = mul(delta0, f)
        # pivots[pos]: (-c*v, -c*w) for c in F_p, v = L(w) with leading
        # digit 1 at position pos; kernel: the w with L(w) = 0
        pivots, kernel = {}, []
        for b, b_q in zip(basis, bq):
            # the column of z^i, with r = 0
            v, w, pos = reduce(add(mul(a, b_q), b), b, pivots)
            if not v:
                kernel.append(w)
                continue
            lead = inv(v // basis[pos])
            v, w = mul(lead, v), mul(lead, w)
            pivots[pos] = [(mul(neg(c), v), mul(neg(c), w)) for c in range(p)]
        # the right-hand side, r = 1, from v = L(0) - 1 = -1
        v, w, _ = reduce(minus_one, 0, pivots)
        if v:
            return []
        sols = [w]
        for u in kernel:
            sols = [add(s, mul(c, u)) for c in range(p) for s in sols]
        # W != 0 since L(0) = 0, and Y = 1/W - 1 != 0 since a != 0
        ys = sorted((add(inv(w), minus_one), w) for w in sols)
        return [mul(g, mul(K._pow(y, q), K._pow(w, q - 1))) for y, w in ys]

    return solve


def _one_root(kernel, g):
    """(the number of distinct roots of g in the kernel's field, one of
    them or None), by following the least part of each trace split."""
    part = kernel.root_part(g)
    count = len(part[0]) - 1
    while len(part[0]) > 2:
        part = min(kernel.split(part), key=lambda pt: len(pt[0]))
    return count, kernel._neg(part[0][0]) if count else None


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
    from h = u_d mod p, by the walk of the module docstring."""
    # built after h, since its tables would evict h's data from the caches
    ambient = prime.kappa.extension(2)
    K = ambient._kernel
    g = [ambient._base_emb[c.index] for c in h.coeffs]
    count, root = _one_root(K, g)
    if count != h.degree:
        raise ConsistencyError(
            f"h of degree {h.degree} has {count} distinct roots in kappa_2")
    h_terms = [(0, [(i, c) for i, c in enumerate(g) if c])]
    solve = _neighbor_solver(prime, ambient)
    targets = {root: None}  # vertex -> its targets, once it is walked
    strays = set()
    walk = [root]
    for v in walk:
        try:
            ts = targets[v] = _checked(solve(v), prime.q)
        except AmbientTooSmallError as exc:
            raise ConsistencyError(f"in kappa_2, {exc}") from None
        for t in ts:
            if t not in targets and t not in strays:
                if not K.evaluate(h_terms, t)[0]:
                    targets[t] = None
                    walk.append(t)
                else:
                    strays.add(t)
    if len(walk) != h.degree:
        raise ConsistencyError(
            f"the walk from one root of h reached {len(walk)} of its "
            f"{h.degree} roots in kappa_2")
    walk.sort()
    index = {v: i for i, v in enumerate(walk)}
    edges = {}
    stray_targets = []
    for i, v in enumerate(walk):
        for t in targets[v]:
            j = index.get(t)
            if j is None:
                stray_targets.append((i, ambient.from_index(t)))
            else:
                edges[i, j] = edges.get((i, j), 0) + 1
    return IsogenyGraph(prime, ambient, 2, tuple(ambient._elements(walk)),
                        edges, tuple(stray_targets))


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
    """Size, q-regularity, closure and (undirected) connectivity of the graph.

    A graph from `build_supersingular_graph` is connected by construction:
    it is walked from one root, and the walk must reach all deg h roots of
    h, so its vertex count carries the connectivity check.  `connected` is
    still read off the edges, for a graph built any other way."""
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

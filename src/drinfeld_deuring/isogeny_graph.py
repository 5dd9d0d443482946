"""Directed correspondence graph on supersingular Delta-invariants.

For a vertex Delta0, every root Y of the neighbor polynomial

    c(Y) = -gamma(T^q) * (Y+1)^(q-1) * Y - Delta0

contributes the edge target

    Delta1 = -gamma(T) * Y^q / (Y+1)^(q-1).

Vertices are the roots of the Deuring polynomial h_{p(T)} = u_d(alpha, Delta).
Theory puts them in kappa_2 = F_{q^(2d)}, the quadratic extension of kappa,
and every root, of h and of each c, is taken there; fewer than deg h roots of
h, or fewer than q of some c, is a ConsistencyError.  For d = 1, kappa itself
is too small: (Y+1)^(q-1) is 0 or 1 on F_q, so c has at most one root there.
Each c is separable (see `neighbors`), but distinct Y-roots may map to the
same Delta1, so edges carry a multiplicity; out-degree counted with it is
exactly q.

No h is built.  Whether x is a root is read off the u-recurrence at x,

    u_(i+1) = (x^(q^i) + alpha^(q^(i+1))) * u_i
              - (alpha^(q^i) - alpha) * x^(q^i) * u_(i-1),

d steps of scalar products in kappa_2 (`_root_test`).  It is
`universal.u_root_test`, the one supersingularity test, which
`drinfeld.is_supersingular` runs too.  The walk starts at one root, found
with no scan where theory names one; the vertices are sorted at the end,
so any start gives the same graph.

For odd d the start is Delta = -alpha, where j = 0: that Drinfeld module
has complex multiplication (CM) by F_(q^2)[T], and is supersingular at p
exactly when p is inert there, that is when deg p is odd (Gekeler, Zur
Arithmetik von Drinfeld-Moduln, Math. Ann. 262, 1983).

For even d over an odd F_q the start is a CM point for c in F_q: with
omega^2 = T - c and phi_omega = omega + b tau, psi_T = phi_omega^2 + c =
T + b(omega + omega^q) tau + b^(q+1) tau^2 has CM by F_q[omega], and by
the same theorem is supersingular exactly when p is inert in
F_q(T)(sqrt(T - c)), that is when alpha - c is a non-square in kappa.  Its
norm to F_q is p(c), so the first c in index order at which p(c) is a
non-square in F_q is taken (`_inert`).  The j-invariant of psi is

    j_c = (omega + omega^q)^(q+1)
        = (alpha - c)^((q+1)/2) * (1 + (alpha - c)^((q-1)/2))^(q+1),

in kappa (`_cm_j`), and a Delta with (Delta + alpha)^(q+1) / Delta = j_c
comes from a linear solve (after Bluher, On x^(q+1) + ax + b, Finite
Fields Appl. 10, 2004): X = Delta + alpha is a root of
X^(q+1) - j X + j alpha, and X = lam * y^(q-1) makes that

    L(y) = lam^(q+1) * y^(q^2) - j * lam * y^q + j * alpha * y = 0,

F_q-linear in y (`_cm_point`).  Its q + 1 roots are distinct (a repeated
root has X^q = j, so j alpha = 0), and with j_c supersingular they lie in
kappa_2.  The y of one kernel of L give q + 1 distinct X, and a kernel has
F_q-dimension at most 2, so all the roots lie in one coset
lam * (kappa_2^*)^(q-1), with N(lam)^(q+1) = N(lam)^2 = N(j alpha) for the
norm N to F_q, as their product is j alpha.  So lam runs over g^s,
s < q - 1, g the kernel's generator, skipping the cosets that fail the
norm test: at most two solves.  The root test decides: a CM point that is
not a root is a ConsistencyError, as -alpha is at odd d.

Otherwise, for even q or with no such c, the start is the first root of
a scan over kappa's elements and then over kappa_2 by index
(`_scanned_root`): the Frobenius of kappa_2 over kappa permutes the roots
in pairs and fixed points, so kappa holds one whenever deg h is odd, as it
is for every even q.  Every prime over an odd F_q whose kappa_2 is within
the cap has a c, so only even q scans.

The targets of a vertex come from one map factored once per graph: Y = -1
is never a root of c (c(-1) = -Delta0), so W = 1/(Y+1) is defined, with
Y = (1-W)/W and (Y+1)^(q-1) * Y = (1-W)/W^q.  c(Y) = 0 then reads
-gamma(T^q) * (1-W) = Delta0 * W^q, that is

    a * W^q + W = 1,    a = -Delta0 / gamma(T^q).

W -> a*W^q + W is F_q-linear, and its kernel is 0 and the W with
W^(q-1) = -1/a.  So if -1/a has no (q-1)-th root the map is one-to-one and
there is exactly one solution: W = 1 - a*W^q unrolled n = [ambient : F_q]
times is W = s + r*W, with r = (-1)^n N(a) != 1 for the norm N to F_q.
Otherwise, for a root lam and W = lam * V (after Bluher, as for the CM
point), a * lam^q = -lam turns the equation into

    A(V) = V^q - V = -1/lam,

where A is F_q-linear with kernel F_q and does not depend on Delta0: there
is no solution if -1/lam is not in A's image, and otherwise exactly the q
solutions lam * (V0 + F_q).  An index's base-p digits are its coordinates
in the basis z^i, so A is factored once per graph by an elimination on
indices of dimension [kappa_2 : F_p] (`_eliminator`, which the CM point's
solve shares), a kernel of A other than F_q being a ConsistencyError; a
vertex then costs one (q-1)-th root, one reduction against A's pivot rows,
and q sums and products.  Each solution gives the target
Delta1 = -gamma(T) * Y^q * W^(q-1).  The walk is breadth-first; each new
target goes through the root test, and one that is not a root is a stray
target, which is not walked on.  The walk must reach all deg h roots: h is
separable of degree N = (q^d - 1)/(q - 1), so reaching N distinct roots shows
that the graph is connected and that every root was found.
"""

import bisect
import itertools
from dataclasses import dataclass, field

from .errors import AmbientTooSmallError, ConsistencyError, DomainError
from .fields import FiniteField, embed
from .modulus import PrimeModulus, check_residue_degree
from .poly import _indices
from .universal import u_root_test


def neighbors(delta0, prime, ambient):
    """Multiset of edge targets of delta0, as elements of the ambient field,
    in the index order of their Y-roots.

    AmbientTooSmallError unless the q roots of c lie in `ambient`.  They are
    distinct: c' = -gamma(T^q) * (Y+1)^(q-2) (-gamma(T)^2 when q = 2) can
    vanish only at Y = -1, where c(-1) = -delta0 != 0.  Each call factors
    V^q - V on `ambient` for its one delta0 (module docstring), where the
    walk of `build_supersingular_graph` factors it once for all vertices.
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


def _eliminator(K, columns):
    """(kernel, preimage) for the F_p-linear map L of the kernel K's indices
    with L(z^i) = columns[i], z^i being the index p^i: kernel is a basis of
    the kernel of L, and preimage(r) is one w with L(w) = r, or None if
    there is none.  An index's base-p digits are its coordinates in the
    basis z^i, so this is Gaussian elimination on indices, of dimension
    [K : F_p].  L is factored once, here: its columns are reduced to pivot
    rows, a kernel vector being found at each column whose reduction
    vanishes, in column order, and each right-hand side then takes one
    reduction against the pivot rows."""
    p, add, neg, mul, inv = K.p, K._add, K._neg, K._mul, K._inv
    basis = [p ** i for i in range(K.degree)]
    # the leading digit of v != 0 sits at top[v.bit_length()] or one below
    top = [0] + [bisect.bisect_left(basis, 1 << b) - 1
                 for b in range(1, K.card.bit_length() + 1)]
    # pivots[pos]: (-c*v, -c*w) for c in F_p, v = L(w) with leading digit 1
    # at position pos
    pivots, kernel = {}, []

    def reduce(v, w):
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

    for b, col in zip(basis, columns):
        # the column of z^i, with r = 0
        v, w, pos = reduce(col, b)
        if not v:
            kernel.append(w)
            continue
        lead = inv(v // basis[pos])
        v, w = mul(lead, v), mul(lead, w)
        pivots[pos] = [(mul(neg(c), v), mul(neg(c), w)) for c in range(p)]

    def preimage(r):
        # from v = L(0) - r = -r
        v, w, _ = reduce(neg(r), 0)
        return None if v else w

    return kernel, preimage


def _neighbor_solver(prime, ambient):
    """The map from a nonzero ambient index Delta0 to the indices of its
    edge targets, in ascending index order of their Y-roots: the solutions
    W of a * W^q + W = 1, as W = lam * V with V^q - V = -1/lam, against the
    map A(V) = V^q - V factored here once (see the module docstring).
    ConsistencyError unless A's kernel is F_q."""
    q, K = prime.q, ambient._kernel
    p, add, neg, mul, inv, pow_ = K.p, K._add, K._neg, K._mul, K._inv, K._pow
    kernel, preimage = _eliminator(
        K, [add(pow_(b, q), neg(b)) for b in (p ** i for i in range(K.degree))])
    if p ** len(kernel) != q:
        raise ConsistencyError(
            f"V^q - V has a kernel of {p}^{len(kernel)} elements in the "
            f"ambient field, not F_{q}")
    # F_q, the kernel's span, and n = [ambient : F_q]
    fq = K.span([[mul(c, u) for c in range(p)] for u in kernel])
    n = K.degree // len(kernel)
    # a = Delta0 * f and Delta1 = g * Y^q * W^(q-1) (module docstring)
    f = inv(neg(embed(prime.alpha ** q, ambient).index))
    g = neg(embed(prime.alpha, ambient).index)
    minus_one = neg(1)

    def solve(delta0):
        a = mul(delta0, f)
        lam = K._root(neg(inv(a)), q - 1)
        if lam is None:
            # W -> a * W^q + W is one-to-one: its one solution, from
            # W = 1 - a * W^q unrolled n times, is s / (1 - r)
            s, r = 0, 1
            for _ in range(n):
                s, r = add(s, r), neg(mul(a, pow_(r, q)))
            sols = [mul(s, inv(add(1, neg(r))))]
        else:
            v = preimage(neg(inv(lam)))
            if v is None:
                return []
            sols = [mul(lam, add(v, t)) for t in fq]
        # W != 0 since a * 0 + 0 != 1, and Y = 1/W - 1 != 0 since a != 0
        ys = sorted((add(inv(w), minus_one), w) for w in sols)
        return [mul(g, mul(pow_(y, q), pow_(w, q - 1))) for y, w in ys]

    return solve


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
    """The graph at a prime whose kappa_2 is within the cap, by the walk of
    the module docstring."""
    q, d = prime.q, prime.d
    # kappa_2 is a residue field of degree 2d: one over the cap is refused
    # before any root is sought
    check_residue_degree(q, 2 * d)
    ambient = prime.kappa.extension(2)
    is_root = _root_test(prime, ambient)
    root = _first_root(prime, ambient, is_root)
    solve = _neighbor_solver(prime, ambient)
    targets = {root: None}  # vertex -> its targets, once it is walked
    strays = set()
    walk = [root]
    for v in walk:
        try:
            ts = targets[v] = _checked(solve(v), q)
        except AmbientTooSmallError as exc:
            raise ConsistencyError(f"in kappa_2, {exc}") from None
        for t in ts:
            if t not in targets and t not in strays:
                if is_root(t):
                    targets[t] = None
                    walk.append(t)
                else:
                    strays.add(t)
    n = (q ** d - 1) // (q - 1)
    if len(walk) != n:
        raise ConsistencyError(
            f"the walk from one root of h reached {len(walk)} of its "
            f"{n} roots in kappa_2")
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


def _root_test(prime, ambient):
    """The test h(x) = 0 for an ambient index x: `universal.u_root_test`
    at gamma = alpha, embedded in the ambient field."""
    return u_root_test(ambient._kernel, embed(prime.alpha, ambient).index,
                       prime.q, prime.d)


def _first_root(prime, ambient, is_root):
    """The root of h the walk starts at, checked by the root test: -alpha
    for odd d, and for even d over an odd F_q the CM point of the first
    c in F_q at which p is inert (`_inert`).  Otherwise, for even q or
    with no such c, the first root over kappa's nonzero elements and then
    over kappa_2 by index (module docstring)."""
    q, d = prime.q, prime.d
    if d % 2:
        root = ambient._neg(embed(prime.alpha, ambient).index)
        if not is_root(root):
            raise ConsistencyError(
                f"Delta = -alpha (j = 0) is not a root of h at a prime of "
                f"odd degree {d}")
        return root
    c = next((c for c in range(q) if _inert(prime, c)), None) if q % 2 \
        else None
    if c is None:
        return _scanned_root(ambient, is_root)
    root = _cm_point(prime, ambient, c)
    if root is None or not is_root(root):
        raise ConsistencyError(
            f"the CM point of sqrt(T - c), c = {prime.field_q.from_index(c)}, "
            f"gives no root of h in kappa_2 at a prime of even degree {d}")
    return root


def _inert(prime, c):
    """Whether p(c) is a non-square in F_q, for the F_q index c and q odd.
    For even d, p(c) = N(alpha - c), the norm from kappa, so this is alpha - c
    being a non-square in kappa: p inert in F_q(T)(sqrt(T - c))."""
    F = prime.field_q
    v = 0
    for coeff in reversed(_indices(prime.p_poly)):
        v = F._add(F._mul(v, c), coeff)
    return F._pow(v, (prime.q - 1) // 2) == F._neg(1)


def _cm_j(prime, ambient, c):
    """The ambient index of j_c = (alpha - c)^((q+1)/2) *
    (1 + (alpha - c)^((q-1)/2))^(q+1), the j-invariant in kappa of the
    module with complex multiplication by sqrt(T - c), for the F_q index
    c and q odd."""
    q, kappa = prime.q, prime.kappa
    K = kappa._kernel
    beta = K._add(prime.alpha.index, K._neg(kappa._base_emb[c]))
    t = K._pow(beta, (q - 1) // 2)
    return ambient._base_emb[K._mul(K._mul(t, beta),
                                    K._pow(K._add(1, t), q + 1))]


def _cm_point(prime, ambient, c):
    """The ambient index of a Delta != 0 with j(Delta) = j_c (`_cm_j`), or
    None if kappa_2 has none: X = Delta + alpha = lam * y^(q-1), with y in
    the kernel of the F_q-linear map

        L(y) = lam^(q+1) * y^(q^2) - j * lam * y^q + j * alpha * y,

    for the first lam = g^s, s < q - 1, g the kernel's generator, whose
    norm N to F_q has N(lam)^2 = N(j * alpha) and whose L has a kernel
    (module docstring)."""
    q, K = prime.q, ambient._kernel
    add, mul, pow_ = K._add, K._mul, K._pow
    j, a = _cm_j(prime, ambient, c), embed(prime.alpha, ambient).index
    ja = mul(j, a)
    e = (K.card - 1) // (q - 1)  # N(x) = x^e
    norm = pow_(ja, e)
    basis = [K.p ** i for i in range(K.degree)]
    bq = [pow_(b, q) for b in basis]
    bqq = [pow_(b, q) for b in bq]
    for s in range(q - 1):
        lam = pow_(K.generator, s)
        if pow_(lam, 2 * e) != norm:
            continue
        c2, c1 = pow_(lam, q + 1), K._neg(mul(j, lam))
        kernel, _ = _eliminator(
            K, [add(add(mul(c2, b2), mul(c1, b1)), mul(ja, b))
                for b, b1, b2 in zip(basis, bq, bqq)])
        if kernel:
            return add(mul(lam, pow_(kernel[0], q - 1)), K._neg(a))
    return None


def _scanned_root(ambient, is_root):
    """The first root of h over kappa's nonzero elements and then over
    kappa_2 by index."""
    root = next(filter(is_root, itertools.chain(ambient._base_emb[1:],
                                                range(1, ambient.card))),
                None)
    if root is None:
        raise ConsistencyError("h has no root in kappa_2")
    return root


def vertices_are_roots(graph, h):
    """Whether every vertex of `graph` is a root of h, a polynomial over
    kappa: the link from a graph walked by the root test to a route's h."""
    K = graph.ambient._kernel
    rows = [[(e, c) for e, c in enumerate(_indices(h)) if c]]
    k = graph.prime.kappa.degree
    return all(not K.evaluate(rows, v.index, k)[0] for v in graph.vertices)


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

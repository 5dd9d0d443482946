"""The benchmark's workloads: seeded inputs, the timed operations, and the
exact checks run on their results outside the timed region.

Every workload is closed-loop: one process issues one operation at a time.
The seed picks which prime of each grid degree is used; `sweep` is
exhaustive, so the seed does not affect it.

    routes  one seeded prime at each (q, d) of ROUTES_GRID; per prime the three
            h routes (direct, grec, universal) and then H on the agreed h.
            Stresses ore, poly mul/divmod, universal, laurent, modulus.reduce.
            Bypasses multipoly, tower, root scans, cli, grammar.
    sweep   `verify --format json` for every (Q, D) of SWEEP_GRID: 242 primes,
            971 check rows.  Stresses per-prime overhead (modulus.prime,
            poly.irreducible, poly.gcd), multipoly, tower, cli, grammar, and
            the u_d reuse across primes of one degree.
    graph   one seeded prime at each (q, d) of GRAPH_GRID; per prime h by the
            direct and grec routes, the supersingular graph (for which
            build_supersingular_graph takes h from the universal route), H on h,
            and the component report.  Stresses exhaustive root scans
            (poly.eval, poly.roots, poly.splitting), extension fields and
            isogeny_graph.  The route calls are at small d; made
            GRAPH_ROUTE_REPEATS times each, they take about 8% of the time.

This module imports the package lazily, so run.py can load it without the
package on its path.
"""

import hashlib
import json
import os
import random

ROUTES_GRID = ((2, 9), (3, 6), (4, 5), (5, 4), (9, 3))
SWEEP_GRID = ((2, 6), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2))
GRAPH_GRID = ((2, 6), (3, 4), (4, 3), (8, 2), (9, 2))
GRIDS = {"routes": ROUTES_GRID, "sweep": SWEEP_GRID, "graph": GRAPH_GRID}

ROUTES = ("direct", "grec", "universal")
# at the graph primes one route call takes a few ms; repeating the direct,
# grec and H calls gives the route metrics of `graph` enough work to be steady
GRAPH_ROUTE_REPEATS = 5


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def seeded_prime(seed, q, d):
    """A monic irreducible p(T) != T of degree d over F_q, chosen by the seed.

    Candidates are drawn from a generator seeded by (seed, q, d) alone, so
    the same seed gives the same prime in every process and on every commit.
    """
    from drinfeld_deuring import PrimeModulus, base_field, is_irreducible
    from drinfeld_deuring.modulus import t_poly_ring

    field = base_field(q)
    ring = t_poly_ring(field)
    rng = random.Random(seed * 1_000_003 + q * 1009 + d)
    while True:
        coeffs = [field.from_index(rng.randrange(q)) for _ in range(d)]
        f = ring.poly(coeffs + [field.one])
        if f != ring.gen and is_irreducible(f):
            return PrimeModulus(f)


class Op:
    """One timed call.  `run` takes the results of earlier ops by label."""

    __slots__ = ("label", "run")

    def __init__(self, label, run):
        self.label = label
        self.run = run


def build(name, seed, tmp_dir, grid=None):
    """Set up a workload: the inputs, built before the first timed op.

    Returns (ops, ctx); ctx holds what the checks need.
    """
    grid = GRIDS[name] if grid is None else grid
    if name == "sweep":
        return _sweep_ops(grid, tmp_dir), {"grid": grid}
    primes = [seeded_prime(seed, q, d) for q, d in grid]
    if name == "routes":
        return _routes_ops(primes), {"primes": primes}
    if name == "graph":
        return _graph_ops(primes), {"primes": primes}
    raise ValueError(f"unknown workload {name!r}")


def _tag(prime):
    from drinfeld_deuring import render

    return f"q={prime.q} d={prime.d} p={render(prime.p_poly)}"


def _routes_ops(primes):
    from drinfeld_deuring import drinfeld

    ops = []
    for prime in primes:
        tag = _tag(prime)
        for route in ROUTES:
            fn = getattr(drinfeld, f"deuring_h_{route}")
            ops.append(Op(f"{tag} {route}", lambda r, p=prime, f=fn: f(p)))
        ops.append(Op(f"{tag} H", lambda r, p=prime, t=tag:
                      drinfeld.deuring_H(p, r[f"{t} direct"])))
    return ops


def _repeated(fn, *args):
    for _ in range(GRAPH_ROUTE_REPEATS):
        out = fn(*args)
    return out


def _graph_ops(primes):
    from drinfeld_deuring import drinfeld, isogeny_graph

    ops = []
    for prime in primes:
        tag = _tag(prime)
        ops += [
            Op(f"{tag} direct", lambda r, p=prime:
               _repeated(drinfeld.deuring_h_direct, p)),
            Op(f"{tag} grec", lambda r, p=prime:
               _repeated(drinfeld.deuring_h_grec, p)),
            Op(f"{tag} graph", lambda r, p=prime:
               isogeny_graph.build_supersingular_graph(p)),
            Op(f"{tag} H", lambda r, p=prime, t=tag:
               _repeated(drinfeld.deuring_H, p, r[f"{t} direct"])),
            Op(f"{tag} component", lambda r, t=tag:
               isogeny_graph.verify_component(r[f"{t} graph"])),
        ]
    return ops


def _sweep_ops(grid, tmp_dir):
    from drinfeld_deuring import cli

    ops = []
    for q, dmax in grid:
        path = os.path.join(tmp_dir, f"verify-q{q}-d{dmax}.json")

        def run(r, q=q, dmax=dmax, path=path):
            rc = cli.main(["verify", "--q", str(q), "--max-degree", str(dmax),
                           "--format", "json", "--output", path])
            with open(path, "rb") as fh:
                return rc, fh.read()

        ops.append(Op(f"verify q={q} max-degree={dmax}", run))
    return ops


def render_result(name, label, value):
    """The bytes an op's golden digest is taken over."""
    from drinfeld_deuring import render

    if name == "sweep":
        return value[1]
    if label.endswith((" graph", " component")):
        return json.dumps(value.to_json_dict(), sort_keys=True)
    return render(value)


def check(name, ctx, results, full):
    """Exact independent checks.  Returns {label: reason} for failed ops.

    `full` adds the expensive check of H against the reduced universal U_d.
    Ops missing from `results` (they raised) are reported by the caller.
    """
    if name == "sweep":
        return _check_sweep(results)
    from drinfeld_deuring import U_sequence, reduce_mod_prime

    bad = {}
    for prime in ctx["primes"]:
        tag = _tag(prime)
        routes = ROUTES if name == "routes" else ROUTES[:2]
        _check_agreement({f"{tag} {r}": results.get(f"{tag} {r}")
                          for r in routes}, bad)
        h = results.get(f"{tag} direct")
        graph = results.get(f"{tag} graph")
        if graph is not None and h is not None \
                and not _vertices_are_roots(graph, h):
            bad[f"{tag} graph"] = "the vertices are not the roots of h"
        rep = results.get(f"{tag} component")
        if rep is not None and not rep.ok:
            bad[f"{tag} component"] = "the component report is not ok"
        H = results.get(f"{tag} H")
        d = prime.d
        if full and H is not None and \
                H != reduce_mod_prime(U_sequence(prime.field_q, d)[d], prime):
            bad[f"{tag} H"] = "H differs from U_d mod p"
    return bad


def _check_agreement(hs, bad):
    """Route agreement: an h that equals no other route's h fails."""
    present = {label: h for label, h in hs.items() if h is not None}
    for label, h in present.items():
        others = [g for other, g in present.items() if other != label]
        if others and h not in others:
            bad[label] = "h disagrees with the other routes"


def _vertices_are_roots(graph, h):
    """The graph's vertices are exactly the deg h distinct roots of h."""
    from drinfeld_deuring import embed

    E = graph.ambient
    coeffs = [embed(c, E) for c in reversed(h.coeffs)]
    for v in graph.vertices:
        acc = E.zero
        for c in coeffs:
            acc = acc * v + c
        if acc:
            return False
    return len(graph.vertices) == len(set(graph.vertices)) == h.degree


def _check_sweep(results):
    bad = {}
    for label, (rc, data) in results.items():
        report = json.loads(data)
        if rc != 0 or report.get("all_pass") is not True \
                or not all(row["pass"] for row in report["checks"]):
            bad[label] = f"verify exited {rc}, all_pass={report.get('all_pass')}"
    return bad

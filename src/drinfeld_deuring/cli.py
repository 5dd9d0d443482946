"""Command-line front end.

Subcommands:

  compute      Deuring polynomial h (and companion H) for one prime, by one
               method or by all three with a MATCH/MISMATCH verdict
  verify       the exact check suite over every prime up to a degree bound
  graph        supersingular correspondence graph plus component report
  identities   generic-characteristic tower identities (alias: tower)

Exit codes: 0 = success / everything verified, 1 = some check failed (e.g.
a graph whose h or neighbor polynomials do not split in kappa_2), 2 = invalid
input, including a prime whose degree exceeds the cardinality cap (refused
while parsing, before any polynomial of that degree is built), a graph whose
kappa_2 exceeds the cap (refused before any root is sought), identities or
verify at q > 64, the budget of the tower identities (refused before any
work), and an --output or --dot path that cannot be written.  All output is
deterministic.
"""

import argparse
import functools
import json
import os
import stat
import sys

from . import grammar
from .drinfeld import _METHODS, DeuringResult, check_g_structure, \
    deuring_H, deuring_h_direct, deuring_h_grec, deuring_h_universal
from .errors import AmbientTooSmallError, ConsistencyError, DomainError, \
    RecurrenceBreakdownError
from .fields import base_field
from .isogeny_graph import build_supersingular_graph, verify_component, \
    vertices_are_roots
from .modulus import PrimeModulus, check_residue_degree, \
    primes_up_to_degree, t_poly_ring
from .tower import all_identity_reports, check_identities_budget
from .universal import U_mod_prime, check_derivative_recursion, \
    _certified, check_key_identity, check_u_zero


def _parse_prime(q, text):
    field = base_field(q)
    # the cap of PrimeModulus, applied while parsing: a degree beyond it is
    # refused before a polynomial of that degree is built
    return PrimeModulus(grammar.parse(
        text, t_poly_ring(field),
        check_degree=lambda d: check_residue_degree(q, d)))


class _UnwritablePathError(Exception):
    """An output file could not be written."""


def _write_file(path, text):
    # rewritten in place, not truncated to 0 bytes first: on ext4 and XFS a
    # file truncated to 0 and rewritten is flushed to disk at close, which
    # costs tens of ms per file.  Opening without O_TRUNC keeps the inode,
    # the mode and a symlink's target; only a regular file is then cut to
    # the new text, since ftruncate fails on /dev/null and on pipes.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise _UnwritablePathError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text, path):
    if not text.endswith("\n"):
        text += "\n"
    if path:
        _write_file(path, text)
    else:
        sys.stdout.write(text)


def cmd_compute(args):
    prime = _parse_prime(args.q, args.prime)
    methods = ("direct", "grec", "universal") if args.method == "all" \
        else (args.method,)
    # H, of degree q^(d+1) - q, is printed only for --var lambda and JSON
    need_H = args.var == "lambda" or args.format == "json"
    results = []
    for m in methods:
        h = _METHODS[m](prime)
        # H is a function of h, so it is computed once per distinct h
        same = [r.H for r in results if r.h == h]
        H = same[0] if same else deuring_H(prime, h) if need_H else None
        results.append(DeuringResult(prime, m, h, H))
    match = all(r.h == results[0].h and r.H == results[0].H for r in results)
    pick = (lambda r: r.h) if args.var == "delta" else (lambda r: r.H)
    if args.format == "json":
        if len(results) == 1:
            payload = results[0].to_json_dict()
        else:
            payload = {
                "q": prime.q,
                "p": grammar.render(prime.p_poly),
                "d": prime.d,
                "results": [r.to_json_dict() for r in results],
                "match": match,
            }
        out = json.dumps(payload, indent=2)
    elif len(results) == 1:
        out = grammar.render(pick(results[0]))
    else:
        lines = [f"{r.method}: {grammar.render(pick(r))}" for r in results]
        lines.append("MATCH" if match else "MISMATCH")
        out = "\n".join(lines)
    _emit(out, args.output)
    return 0 if match else 1


# graph checks stay within this envelope so that verify's rows, and hence
# its stdout, stay as they are
_GRAPH_ENVELOPE = {2: 3, 3: 2}


def _verify_rows(q, max_degree):
    field = base_field(q)
    # before any row, not after the sweep has reached the capped degree
    check_residue_degree(q, max_degree)
    check_identities_budget(q)
    rows = []
    for i in range((5 if q <= 3 else 3) + 1):
        rows.append((f"u-zero[i={i}]", check_u_zero(field, i)))
    for i in range((3 if q == 2 else 2) + 1):
        rows.append((f"key-identity[i={i}]", check_key_identity(field, i)))
    for i in range(1, (4 if q <= 3 else 2) + 1):
        rows.append((f"derivative-recursion[i={i}]",
                     check_derivative_recursion(field, i)))
    for rep in all_identity_reports(q):
        rows.append((f"identity-{rep.name}", rep.verified))
    for prime in primes_up_to_degree(field, max_degree):
        label = grammar.render(prime.p_poly)
        h = deuring_h_direct(prime)
        h_grec = deuring_h_grec(prime)
        h_univ = deuring_h_universal(prime)
        rows.append((f"three-way-h[{label}]", h == h_grec == h_univ))
        # H is a function of h, so it is computed once per distinct h
        H = deuring_H(prime, h)
        H_univ = H if h_univ == h else deuring_H(prime, h_univ)
        U_red = U_mod_prime(prime)
        rows.append((f"H-universal[{label}]", H == U_red and H_univ == U_red))
        N = (q ** prime.d - 1) // (q - 1)
        # h_univ is u_d mod p, whose roots the graph's vertices must be; it
        # is separable when it equals u_d's closed form over kappa
        # (`_certified`)
        rows.append((f"h-shape[{label}]",
                     h.degree == N and h.lead == prime.kappa.one
                     and bool(h.constant_coeff())
                     and _certified(prime, h_univ)))
        if prime.d <= 2:
            rows.append((f"g-structure[{label}]", check_g_structure(prime, h)))
        if prime.d <= _GRAPH_ENVELOPE.get(q, 0):
            g = build_supersingular_graph(prime)
            rows.append((f"graph[{label}]", verify_component(g).ok
                         and vertices_are_roots(g, h_univ)))
    return rows


def _table(rows):
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
             for name, ok in rows]
    failed = sum(1 for _, ok in rows if not ok)
    lines.append("")
    if failed:
        lines.append(f"{failed} of {len(rows)} checks FAILED")
    else:
        lines.append(f"all {len(rows)} checks passed")
    return "\n".join(lines), failed


def cmd_verify(args):
    if args.max_degree < 1:
        raise DomainError("--max-degree must be at least 1")
    rows = _verify_rows(args.q, args.max_degree)
    if args.format == "json":
        out = json.dumps({
            "q": args.q,
            "max_degree": args.max_degree,
            "checks": [{"name": n, "pass": ok} for n, ok in rows],
            "all_pass": all(ok for _, ok in rows),
        }, indent=2)
        failed = sum(1 for _, ok in rows if not ok)
    else:
        out, failed = _table(rows)
    _emit(out, args.output)
    return 1 if failed else 0


def cmd_graph(args):
    prime = _parse_prime(args.q, args.prime)
    g = build_supersingular_graph(prime)
    rep = verify_component(g)
    if args.dot:
        _write_file(args.dot, g.to_dot())
    if args.format == "json":
        out = json.dumps({"graph": g.to_json_dict(),
                          "component": rep.to_json_dict()}, indent=2)
    else:
        hist = rep.out_degree_histogram
        if len(hist) == 1:
            deg_text = f"all {next(iter(hist))}"
        else:
            deg_text = ", ".join(f"{d}: {n}" for d, n in sorted(hist.items()))
        lines = [
            f"p = {grammar.render(prime.p_poly)} over F_{prime.q} "
            f"(d = {prime.d})",
            f"ambient extension degree over kappa: {g.ambient_degree}",
            f"size: {rep.size} (expected {rep.expected_size})",
            f"out-degree: {deg_text} (q-regular: {'yes' if rep.q_regular else 'no'})",
            f"closed: {'yes' if rep.closed else 'no'}",
            f"connected: {'yes' if rep.connected else 'no'}",
            "vertices:",
        ]
        for i, v in enumerate(g.vertices):
            lines.append(f"  [{i}] {grammar.render(v)}")
        lines.append("edges (with multiplicity):")
        for (i, j), mult in sorted(g.edges.items()):
            lines.append(f"  [{i}] -> [{j}] x{mult}")
        for i, t in g.stray_targets:
            lines.append(f"  [{i}] -> {grammar.render(t)} (not a vertex)")
        out = "\n".join(lines)
    _emit(out, args.output)
    return 0 if rep.ok else 1


def cmd_identities(args):
    reports = all_identity_reports(args.q)
    if args.format == "json":
        out = json.dumps({"q": args.q,
                          "reports": [r.to_json_dict() for r in reports]},
                         indent=2)
    else:
        rows = [(r.name, r.verified) for r in reports]
        out, _failed = _table(rows)
    _emit(out, args.output)
    return 0 if all(r.verified for r in reports) else 1


# built once per process, on the first call: a build costs about ten
# parses (0.6 against 0.05-0.07 ms on a 2-vCPU VM)
@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="drinfeld-deuring",
        description="Deuring polynomials of rank-2 Drinfeld modules in "
                    "Legendre form, with exact verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, required=True,
                       help="base field cardinality (a prime power)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="PATH",
                       help="write to PATH instead of stdout")

    pc = sub.add_parser("compute",
                        help="Deuring polynomial(s) for one prime")
    common(pc)
    pc.add_argument("--prime", required=True,
                    help="irreducible p(T) != T, e.g. 'T^2+T+1'")
    pc.add_argument("--var", choices=("delta", "lambda"), default="delta",
                    help="print h (delta form) or H (lambda form)")
    pc.add_argument("--method",
                    choices=("direct", "grec", "universal", "all"),
                    default="all")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run the exact check suite")
    common(pv)
    pv.add_argument("--max-degree", type=int, default=2, dest="max_degree",
                    help="largest prime degree to sweep (default 2)")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("graph",
                        help="supersingular correspondence graph")
    common(pg)
    pg.add_argument("--prime", required=True)
    pg.add_argument("--dot", metavar="PATH",
                    help="also write the graph as DOT text to PATH")
    pg.set_defaults(func=cmd_graph)

    pi = sub.add_parser("identities", aliases=["tower"],
                        help="correspondence-tower identity checks")
    common(pi)
    pi.set_defaults(func=cmd_identities)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, AmbientTooSmallError, _UnwritablePathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, RecurrenceBreakdownError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Canonical text form for ring values, and a parser for the same grammar.

Rendering: a value is a sum of terms joined by " + ", each term
"coeff*V^e" with the exponent part dropped when e = 1, the "^e" dropped
when e = 1, the coefficient dropped when it is 1 (unless the term is
constant), and coefficients that are themselves sums wrapped in
parentheses.  Terms are ordered by descending degree (graded
lexicographic for multivariate values).  Field elements render as
polynomials in their tower generators (x for the base field, a for the
residue field, b for further extensions); prime-field elements render as
integers.  Laurent values use explicit negative exponents like "T^-2";
twisted polynomials render in the variable tau.

Parsing accepts the rendered grammar plus binary/unary minus, so inputs
like "T-1" work.
"""

from __future__ import annotations

import re

from .errors import DomainError
from .fields import FieldElement, FiniteField, embed
from .laurent import LaurentRing, LaurentT
from .poly import PolyRing, _Dense


def render(obj):
    if isinstance(obj, FieldElement):
        return _render_element(obj)
    if isinstance(obj, _Dense):
        return _render_dense(obj.coeffs, obj.ring.var)
    if isinstance(obj, LaurentT):
        return _render_dense(obj.num.coeffs, obj.ring.tring.var, -obj.k)
    from . import multipoly

    if isinstance(obj, multipoly.MultiPoly):
        return _render_multi(obj)
    if isinstance(obj, int):
        return str(obj)
    raise DomainError(f"cannot render {type(obj).__name__}")


def _term(coeff_str, var, e):
    if e == 0:
        return coeff_str
    part = var if e == 1 else f"{var}^{e}"
    if coeff_str == "1":
        return part
    if " + " in coeff_str:
        coeff_str = f"({coeff_str})"
    return f"{coeff_str}*{part}"


def _render_element(x):
    f = x.field
    if f.base is None:
        return str(x.index)
    coords = f.coords_over_base(x)
    terms = []
    for j in range(len(coords) - 1, -1, -1):
        c = coords[j]
        if c:
            terms.append(_term(_render_element(c), f.gen_name, j))
    return " + ".join(terms) if terms else "0"


def _render_dense(coeffs, var, shift=0):
    """Dense ascending coefficients, the term of coeffs[i] carrying the
    exponent i + shift."""
    terms = [_term(render(coeffs[i]), var, i + shift)
             for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]]
    return " + ".join(terms) if terms else "0"


def _render_multi(f):
    out = []
    for exps, c in f.sorted_terms():
        parts = [_term("1", v, e)
                 for v, e in zip(f.ring.names, exps) if e]
        # the monomial is one "variable" with exponent 1, or 0 when constant
        out.append(_term(render(c), "*".join(parts), 1 if parts else 0))
    return " + ".join(out) if out else "0"


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise DomainError(f"cannot tokenize {rest[:20]!r}")
        if m.group(1) is not None:
            toks.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            toks.append(("name", m.group(2)))
        else:
            toks.append(("op", m.group(3)))
        pos = m.end()
    return toks


def ring_env(ring):
    """Generator names in scope for a ring, mapped to ring values."""
    if isinstance(ring, FiniteField):
        env = {}
        f = ring
        while f is not None and f.base is not None:
            if f.gen_name and f.gen_name not in env:
                env[f.gen_name] = embed(f.gen, ring)
            f = f.base
        return env
    if isinstance(ring, PolyRing):
        env = {k: ring.coerce(v) for k, v in ring_env(ring.base).items()}
        env[ring.var] = ring.gen
        return env
    if isinstance(ring, LaurentRing):
        return {k: ring.coerce(v) for k, v in ring_env(ring.tring).items()}
    from . import multipoly

    if isinstance(ring, multipoly.MultiRing):
        env = {k: ring.coerce(v) for k, v in ring_env(ring.field).items()}
        for name, gen in zip(ring.names, ring.gens()):
            env[name] = gen
        return env
    raise DomainError(f"no grammar environment for {ring!r}")


class _Parser:
    def __init__(self, toks, ring, env, check_degree=None):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.ring = ring
        self.env = env
        self.check_degree = check_degree

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val = self.take()
        if kind is None:
            raise DomainError("unexpected end of input")
        if kind != "op" or val != op:
            raise DomainError(f"expected {op!r} at token {self.pos - 1}")

    def expr(self):
        kind, val = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.take()
            neg = val == "-"
        v = self.term()
        if neg:
            v = -v
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                v = v - t if val == "-" else v + t
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                w = self.factor()
                if self.check_degree is not None:
                    self.check_degree(v.degree + w.degree)
                v = v * w
            else:
                return v

    def factor(self):
        kind, val = self.take()
        if kind == "int":
            v = self.ring.coerce(val)
        elif kind == "name":
            if val not in self.env:
                raise DomainError(f"unknown generator {val!r}")
            v = self.env[val]
        elif kind == "op" and val == "(":
            # a bound well inside the recursion limit: a level is 3 frames
            self.depth += 1
            if self.depth > 100:
                raise DomainError("parentheses nested more than 100 deep")
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
        elif kind is None:
            raise DomainError("unexpected end of input")
        else:
            raise DomainError(f"unexpected token {val!r}")
        kind, nxt = self.peek()
        if kind == "op" and nxt == "^":
            self.take()
            kind, e = self.take()
            sign = 1
            if kind == "op" and e == "-":
                sign = -1
                kind, e = self.take()
            if kind != "int":
                raise DomainError("exponent must be an integer")
            if self.check_degree is not None and sign > 0:
                self.check_degree(v.degree * e)
            v = v ** (sign * e)
        return v


def parse(text, ring, check_degree=None):
    """Parse a grammar string into a value of the given ring.

    For a polynomial ring, `check_degree` (if given) is called with the
    degree of each product and power before it is built, and may raise to
    refuse the input; sums never raise the degree, so no value beyond a
    degree it accepts is ever built, even one that later terms would
    cancel.
    """
    toks = _tokenize(text)
    if not toks:
        raise DomainError("empty expression")
    p = _Parser(toks, ring, ring_env(ring), check_degree)
    v = p.expr()
    if p.pos != len(toks):
        raise DomainError(f"trailing input at token {p.pos}")
    return v

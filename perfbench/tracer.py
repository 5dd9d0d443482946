"""Span tracing and route timers, installed from outside the package.

Both work by replacing callables of the `drinfeld_deuring` modules with
wrappers, and every reference to them that another module or a module-level
dict holds (`from .x import f` copies, `drinfeld._METHODS`).  Nothing under
`src/` changes; a worker process installs them once and never removes them.

`RouteTimers` times the four route entry points.  It wraps a few hundred
calls per run, so the timed runs use it too.

`Tracer` records a span around every public function and method of each
module, and the arithmetic operators of its classes.  A span's self time is
its duration minus that of its child spans; the benchmark's own frames are
spans too, so the self times of one run add up to its traced time.  Field
element arithmetic, called millions of times, is a leaf: it adds a count and
a summed time to one aggregate and to its parent's child time, and records no
frame.  A leaf must not call a traced callable, so `FiniteField.from_index`
and `FiniteField.coerce`, which the element operators call, stay unwrapped.
"""

import importlib
import inspect
import sys
import time

PACKAGE = "drinfeld_deuring"
MODULES = ("fields", "poly", "ore", "laurent", "multipoly", "modulus",
           "universal", "drinfeld", "isogeny_graph", "tower", "grammar", "cli")

ROUTE_FUNCTIONS = {"deuring_h_direct": "direct", "deuring_h_grec": "grec",
                   "deuring_h_universal": "universal", "deuring_H": "H"}

# span names that the benchmark reports; anything else is named
# <module>.<qualname> and only counts towards its module's total
SPAN_NAMES = {
    "ore.OrePoly.__mul__": "ore.mul",
    "ore.OrePoly.__rmul__": "ore.mul",
    "ore.qpow": "ore.qpow",
    "ore.drinfeld_image": "ore.image",
    "drinfeld.deuring_h_direct": "drinfeld.direct",
    "drinfeld.deuring_g_sequence": "drinfeld.direct",
    "drinfeld.deuring_h_grec": "drinfeld.grec",
    "drinfeld.grec_g_sequence": "drinfeld.grec",
    "drinfeld.deuring_h_universal": "drinfeld.universal",
    "drinfeld.deuring_H": "drinfeld.H",
    "poly.Poly.__mul__": "poly.mul",
    "poly.Poly.__rmul__": "poly.mul",
    "poly.Poly.__divmod__": "poly.divmod",
    "poly.Poly.__call__": "poly.eval",
    "poly.is_irreducible": "poly.irreducible",
    "poly.poly_gcd": "poly.gcd",
    "poly.roots_in_extension": "poly.roots",
    "poly.splitting_degree": "poly.splitting",
    "universal.u_sequence": "universal.u_sequence",
    "universal.U_sequence": "universal.U_sequence",
    "universal.check_key_identity": "universal.key_identity",
    "universal.check_simple_roots": "universal.simple_roots",
    "universal.check_u_zero": "universal.checks",
    "universal.check_derivative_recursion": "universal.checks",
    "universal.check_simple_roots_generic": "universal.checks",
    "laurent.LaurentT.__mul__": "laurent.mul",
    "laurent.LaurentT.__rmul__": "laurent.mul",
    "multipoly.MultiPoly.__mul__": "multipoly.mul",
    "multipoly.MultiPoly.__rmul__": "multipoly.mul",
    "modulus.reduce_mod_prime": "modulus.reduce",
    "modulus.PrimeModulus.gamma": "modulus.reduce",
    "modulus.PrimeModulus.__init__": "modulus.prime",
    "modulus.primes_of_degree": "modulus.enumerate",
    "modulus.primes_up_to_degree": "modulus.enumerate",
    "tower.verify_factorization": "tower.identities",
    "tower.verify_theta_parametrization": "tower.identities",
    "tower.verify_recursion_step": "tower.identities",
    "tower.j_chain_check": "tower.identities",
    "tower.all_identity_reports": "tower.identities",
    "cli.cmd_verify": "cli.verify",
    "grammar.render": "grammar.render",
    "isogeny_graph.build_supersingular_graph": "isogeny_graph.build",
    "isogeny_graph.neighbors": "isogeny_graph.neighbors",
    "isogeny_graph.verify_component": "isogeny_graph.component",
    "fields.FiniteField.__init__": "fields.extensions",
}

# layers whose self time during set-up is reported
SETUP_LAYERS = ("modulus.prime", "poly.irreducible", "fields.extensions")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
             "__divmod__", "__floordiv__", "__mod__", "__call__")
CONSTRUCTORS = ("modulus.PrimeModulus.__init__", "fields.FiniteField.__init__")
UNWRAPPED = ("fields.FiniteField.from_index", "fields.FiniteField.coerce",
             "fields.FiniteField.elements")


def _modules():
    return {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in MODULES}


def _replace_everywhere(orig, wrapper):
    """Point every module-level reference to `orig` at `wrapper`."""
    for mod in [sys.modules[PACKAGE], *_modules().values()]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapper


class RouteTimers:
    """The calls of each route entry point, as pairs of SpeedClock marks."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = {route: [] for route in ROUTE_FUNCTIONS.values()}

    def install(self):
        drinfeld = _modules()["drinfeld"]
        for fname, route in ROUTE_FUNCTIONS.items():
            fn = getattr(drinfeld, fname)
            _replace_everywhere(fn, self._wrap(fn, self.calls[route]))

    def _wrap(self, fn, calls):
        mark = self.clock.mark

        def timed(*args, **kwargs):
            m0 = mark()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((m0, mark()))

        return timed

    def per_op(self, op_marks, measure):
        """{op label: {route: summed measure(m0, m1)}} of the calls made
        inside each op; op_marks maps each label to its (start, end) marks."""
        out = {}
        for label, (start, end) in op_marks.items():
            out[label] = {route: sum(measure(m0, m1) for m0, m1 in calls
                                     if start[0] <= m0[0] <= end[0])
                          for route, calls in self.calls.items()}
        return out


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds]
        self.spans = {}
        # work counters: name -> int
        self.counts = {}
        # stack of child-time accumulators, one per open span
        self.stack = [[0.0]]

    def stat(self, name):
        return self.spans.setdefault(name, [0, 0.0])

    # wrappers --------------------------------------------------------------

    def span(self, name, fn, work=None, after=None):
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if work is not None:
                work(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt - frame[0]
                stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def generator_span(self, name, fn):
        """Span around each resumption of a generator."""
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dt - frame[0]
                    stack[-1][0] += dt
                yield value

        return traced

    def leaf(self, name, fn):
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                stack[-1][0] += dt

        return traced

    # installation ----------------------------------------------------------

    def reset(self):
        """Zero every statistic in place; the wrappers hold references."""
        for st in self.spans.values():
            st[0], st[1] = 0, 0.0
        self.counts.clear()

    def _count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _hooks(self):
        """Work counters per span name: (before call, after call)."""

        def pairs(name, size):
            def work(args):
                self._count(name, size(*args))
            return work

        def length(b):
            # a scalar operand is coerced to a constant polynomial
            return len(b.coeffs) if hasattr(b, "coeffs") else 1

        def mul_pairs(a, b):
            return len(a.coeffs) * length(b)

        def divmod_pairs(a, b):
            return max(len(a.coeffs) - length(b) + 1, 0) * length(b)

        def maximum(name, size):
            def after(args, result):
                if result is not NotImplemented:
                    self._maximum(name, size(args, result))
            return after

        return {
            "ore.mul": (pairs("ore.mul.pairs", mul_pairs), None),
            "poly.mul": (pairs("poly.mul.pairs", mul_pairs),
                         maximum("poly.mul.max_degree",
                                 lambda args, r: len(r.coeffs) - 1)),
            "poly.divmod": (pairs("poly.divmod.pairs", divmod_pairs), None),
            "multipoly.mul": (None, maximum("multipoly.mul.max_terms",
                                            lambda args, r: len(r.terms))),
            "isogeny_graph.build": (None, maximum(
                "isogeny_graph.ambient_degree",
                lambda args, g: g.ambient_degree)),
            "fields.extensions": (None, maximum(
                "fields.max_card", lambda args, r: args[0].card)),
        }

    def install(self):
        hooks = self._hooks()
        for modname, mod in _modules().items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(modname, value, hooks)
                elif inspect.isfunction(getattr(value, "__wrapped__", value)) \
                        and getattr(value, "__module__", None) == mod.__name__:
                    name = SPAN_NAMES.get(f"{modname}.{attr}",
                                          f"{modname}.{attr}")
                    before, after = hooks.get(name, (None, None))
                    if inspect.isgeneratorfunction(value):
                        wrapper = self.generator_span(name, value)
                    else:
                        wrapper = self.span(name, value, before, after)
                    _replace_everywhere(value, wrapper)

    def _install_class(self, modname, cls, hooks):
        for attr, value in list(vars(cls).items()):
            key = f"{modname}.{cls.__name__}.{attr}"
            if not inspect.isfunction(value) or key in UNWRAPPED:
                continue
            if attr.startswith("_") and attr not in OPERATORS \
                    and key not in CONSTRUCTORS:
                continue
            if cls.__name__ == "FieldElement":
                setattr(cls, attr, self.leaf("fields.elt_ops", value))
                continue
            name = SPAN_NAMES.get(key, key)
            before, after = hooks.get(name, (None, None))
            setattr(cls, attr, self.span(name, value, before, after))
        if cls.__name__ == "FiniteField":
            elements = cls.elements

            def counted(field):
                self._count("fields.scan.elements", field.card)
                return elements(field)

            cls.elements = counted

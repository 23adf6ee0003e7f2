"""Outside-in tracer for reflharm, installed at run time.

Wraps the public functions and methods listed in TARGETS without editing
the package: module functions are rebound under every name that refers to
them in any `reflharm.*` module (so `from .harmonics import harmonic_basis`
in `cli` is traced too), and methods are patched on their classes.  Each
wrapped call is a span with a name, start, end and parent; a layer's self
time is the time of its spans minus the time of their wrapped children.
Work done in unwrapped code counts toward the nearest wrapped caller, or
toward the request itself (`request.self_s`) when there is none.

The CycloScalar operations are called millions of times per pass, so they
only count calls and time and keep no span record.
"""

import sys
from time import perf_counter

# (layer, name, owner within reflharm, attribute).  Besides the calls the
# benchmark reports, a few entry points (skew_product, reflections,
# invariant_degrees, invariant_basis, ideal_component, subsystem) are
# wrapped so that their time counts toward their own layer.
TARGETS = [
    ("scalars", "cyclo_add", "scalars.CycloScalar", "__add__"),
    ("scalars", "cyclo_sub", "scalars.CycloScalar", "__sub__"),
    ("scalars", "cyclo_mul", "scalars.CycloScalar", "__mul__"),
    ("scalars", "cyclo_inv", "scalars.CycloScalar", "inv"),
    ("linalg", "rref", "linalg", "rref"),
    ("linalg", "rref_with_transform", "linalg", "rref_with_transform"),
    ("linalg", "kernel_basis", "linalg", "kernel_basis"),
    ("linalg", "span_init", "linalg.SpanSolver", "__init__"),
    ("linalg", "span_express", "linalg.SpanSolver", "express"),
    ("linalg", "span_contains", "linalg.SpanSolver", "contains"),
    ("linalg", "mat_mul", "linalg", "mat_mul"),
    ("linalg", "mat_inv", "linalg", "mat_inv"),
    ("mpoly", "act", "mpoly.MPoly", "act"),
    ("mpoly", "mul", "mpoly.MPoly", "__mul__"),
    ("mpoly", "diff_apply", "mpoly", "diff_apply"),
    ("groups", "closure", "groups.ReflectionGroup", "__init__"),
    ("groups", "mul_index", "groups.ReflectionGroup", "mul_index"),
    ("groups", "hyperplanes", "groups.ReflectionGroup", "hyperplanes"),
    ("groups", "check_skewness", "groups.ReflectionGroup", "check_skewness"),
    ("groups", "skew_product", "groups.ReflectionGroup", "_skew_product"),
    ("groups", "reflections", "groups.ReflectionGroup", "reflections"),
    ("harmonics", "molien", "harmonics", "molien"),
    ("harmonics", "invariant_degrees", "harmonics", "invariant_degrees"),
    ("harmonics", "free_generators", "harmonics", "free_generators"),
    ("harmonics", "invariant_basis", "harmonics", "invariant_basis"),
    ("harmonics", "ideal_component", "harmonics", "ideal_component"),
    ("harmonics", "harmonic_basis", "harmonics", "harmonic_basis"),
    ("harmonics", "fixed_point_basis", "harmonics", "fixed_point_basis"),
    ("harmonics", "project_to_H", "harmonics", "project_to_H"),
    ("harmonics", "action_matrix", "harmonics", "action_matrix"),
    ("factorisation", "verify_factorisation", "factorisation", "verify_factorisation"),
    ("factorisation", "xi_apply", "factorisation", "xi_apply"),
    ("factorisation", "equivariance_check", "factorisation", "equivariance_check"),
    ("factorisation", "xi_dual_compare", "factorisation", "xi_dual_compare"),
    ("characters", "conjugacy_classes", "characters", "conjugacy_classes"),
    ("characters", "character_table", "characters", "character_table"),
    ("characters", "fake_degrees", "characters", "fake_degrees"),
    ("characters", "graded_character", "characters", "graded_character"),
    ("rootdata", "root_datum", "rootdata", "build_root_datum"),
    ("rootdata", "subsystem", "rootdata", "subsystem"),
    ("rootdata", "complement_group", "rootdata", "complement_group"),
    ("weyl", "count_split", "weyl", "count_split"),
    ("weyl", "count_twisted", "weyl", "count_twisted"),
    ("weyl", "f_classes", "weyl", "f_classes"),
]
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# per-name counters: calls, outermost time, self time, depth, extra
CALLS, TOTAL, SELF, DEPTH, EXTRA = range(5)


def _rref_hook(st, args, result):
    rows = args[0]
    extra = st[EXTRA]
    if rows:
        extra["cells"] += len(rows) * len(rows[0])
    extra["rows_in"] += len(rows)
    extra["rank_out"] += len(result[1])


def _closure_hook(st, args, result):
    st[EXTRA]["elements"] += args[0].order


HOOKS = {"linalg.rref": (_rref_hook, ("cells", "rows_in", "rank_out")),
         "groups.closure": (_closure_hook, ("elements",))}


def _harmonic_basis_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "perp")
    return "harmonics.harmonic_basis.%s" % method


class Tracer:
    """Spans and counters for the requests run between begin() and end()."""

    def __init__(self):
        self.names = ["request"]
        self.spans = []  # [request, name index, start, end, parent span]
        self._index = {"request": 0}
        self._stats = {}
        self._stack = []
        self._request = -1
        self._busy = [False]
        self._bindings = []
        for layer, name, owner, attr in TARGETS:
            full = "%s.%s" % (layer, name)
            if full == "harmonics.harmonic_basis":
                for method in ("perp", "derivative"):
                    self._new_stat("%s.%s" % (full, method))
                self._bind(owner, attr, _harmonic_basis_name, False)
            else:
                self._new_stat(full)
                self._bind(owner, attr, full, layer == "scalars")

    def _new_stat(self, name):
        hook = HOOKS.get(name)
        extra = dict.fromkeys(hook[1], 0) if hook else None
        self._stats[name] = [0, 0.0, 0.0, 0, extra]
        self._index[name] = len(self.names)
        self.names.append(name)

    def _bind(self, owner, attr, name, leaf):
        module_name, _, cls_name = owner.partition(".")
        module = sys.modules["reflharm." + module_name]
        holder = getattr(module, cls_name) if cls_name else module
        orig = holder.__dict__[attr]
        wrapper = self._leaf(name, orig) if leaf else self._span(name, orig)
        if cls_name:
            places = [holder]
        else:
            places = [m for key, m in sys.modules.items()
                      if key == "reflharm" or key.startswith("reflharm.")]
        for place in places:
            for key, value in list(vars(place).items()):
                if value is orig:
                    self._bindings.append((place, key, orig, wrapper))

    def install(self):
        for place, key, _, wrapper in self._bindings:
            setattr(place, key, wrapper)

    def uninstall(self):
        for place, key, orig, _ in self._bindings:
            setattr(place, key, orig)

    def begin(self, request_no):
        """Reset the counters and open the root span of one request."""
        for st in self._stats.values():
            st[CALLS] = st[DEPTH] = 0
            st[TOTAL] = st[SELF] = 0.0
            if st[EXTRA]:
                st[EXTRA] = dict.fromkeys(st[EXTRA], 0)
        self._request = request_no
        self._busy[0] = False
        self.spans.append([request_no, 0, perf_counter(), None, None])
        self._stack[:] = [[0.0, len(self.spans) - 1]]

    def end(self):
        """Close the root span; return this request's metrics."""
        root = self._stack[0]
        span = self.spans[root[1]]
        span[3] = perf_counter()
        out = {"request.self_s": span[3] - span[2] - root[0]}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, st in self._stats.items():
            layer_self[name.split(".", 1)[0]] += st[SELF]
            out[name + ".calls"] = st[CALLS]
            out[name + ".s"] = st[TOTAL]
            for key, value in (st[EXTRA] or {}).items():
                out["%s.%s" % (name, key)] = value
        for layer, value in layer_self.items():
            out[layer + ".self_s"] = value
        return out

    def _span(self, name, fn):
        """Wrap fn in a recorded span; `name` may be a function of the
        call's arguments."""
        stack, spans, stats, index = self._stack, self.spans, self._stats, self._index
        namer = name if callable(name) else (lambda args, kwargs: name)
        hook = HOOKS.get(name, (None,))[0] if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            key = namer(args, kwargs)
            st = stats[key]
            spans.append([self._request, index[key], 0.0, None, stack[-1][1]])
            frame = [0.0, len(spans) - 1]
            stack.append(frame)
            st[DEPTH] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                st[DEPTH] -= 1
                dur = t1 - t0
                stack[-1][0] += dur
                span = spans[frame[1]]
                span[2], span[3] = t0, t1
                st[CALLS] += 1
                st[SELF] += dur - frame[0]
                if not st[DEPTH]:
                    st[TOTAL] += dur
            if hook:
                hook(st, args, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        stack, busy, st = self._stack, self._busy, self._stats[name]

        def wrapper(*args):
            st[CALLS] += 1
            if busy[0]:
                return fn(*args)
            busy[0] = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                busy[0] = False
                stack[-1][0] += dur
                st[TOTAL] += dur
                st[SELF] += dur
        return wrapper

    def dump(self):
        """All spans recorded so far, as plain JSON data."""
        return {"fields": ["request", "name", "start", "end", "parent"],
                "names": self.names, "spans": self.spans}

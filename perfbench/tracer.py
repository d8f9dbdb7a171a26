"""Per-layer tracing of rotvec from outside the library.

``Tracer.install`` replaces the functions and methods of every rotvec module
with wrappers that open a span around each call; ``uninstall`` puts the
originals back. Spans nest on one stack: a layer's self time is the time its
spans were open minus the time of the spans opened inside them. Counters are
taken at the same boundaries.

Three things the wrapping must get right:

- a name bound by ``from .x import y`` is a second reference to the same
  function, so every module attribute (and ``dynamics._STEPPERS``) that is
  one of the wrapped functions is re-pointed at its wrapper;
- a generator function's body runs when the caller iterates, not when it is
  called, so its span is opened around every resume until the generator is
  exhausted or closed, and the caller's loop body stays outside it;
- the velocity of a field is a callable object stored on the spec, so the
  specs returned by the three field constructors get a counting wrapper.
"""

import functools
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("geometry", "trig", "fields", "dynamics", "measures", "pbracket",
          "suspension", "experiments")
VELOCITY = "dynamics.velocity"
# private functions worth a span of their own
_PRIVATE = {"_certified_sup"}
# dunder methods that build TrigPolys
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__",
            "__rmul__"}
_STEP_FUNCTIONS = {"dynamics.midpoint_step", "dynamics.rk4_step"}
_FIELD_FACTORIES = {"dynamics.hamiltonian_field", "dynamics.locally_hamiltonian_field",
                    "suspension.suspended_field"}


class Tracer:
    """Span stack, per-layer self times, per-function inclusive times, counters."""

    def __init__(self, rotvec):
        self.rotvec = rotvec
        self.modules = [getattr(rotvec, name) for name in LAYERS]
        self._patches = []
        self.reset()

    def reset(self):
        self.stack = []
        self.depth = Counter()
        self.incl = Counter()      # key -> seconds, outermost span of the key only
        self.calls = Counter()
        self.self_time = Counter()  # layer -> seconds
        self.count = Counter()
        self.velocity_s = 0.0
        self.velocity_calls = 0
        self.velocity_point_terms = 0

    # -- spans ----------------------------------------------------------------

    def push(self, key, layer):
        self.depth[key] += 1
        self.stack.append([key, layer, time.perf_counter(), 0.0])

    def pop(self):
        key, layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.depth[key] -= 1
        self.self_time[layer] += duration - child
        if not self.depth[key]:
            self.incl[key] += duration
        if self.stack:
            self.stack[-1][3] += duration

    def parent_key(self):
        return self.stack[-1][0] if self.stack else None

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, key, layer):
        tracer = self
        hook = _HOOKS.get(key)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[key] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer.push(key, layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.pop()
                        yield item
                finally:
                    tracer.push(key, layer)
                    try:
                        inner.close()
                    finally:
                        tracer.pop()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            tracer.push(key, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if key in _STEP_FUNCTIONS:  # counted once, where it is raised
                    tracer.count[f"step_raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or name in _PRIVATE)):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(obj, layer, wrappers)
        # re-point every binding of a wrapped function, in every module
        for module in self.modules + [self.rotvec]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(module, name, wrappers[id(obj)])
        steppers = self.rotvec.dynamics._STEPPERS
        for name, fn in list(steppers.items()):
            if id(fn) in wrappers:
                self._patches.append((steppers, name, fn, True))
                steppers[name] = wrappers[id(fn)]

    def _install_class(self, cls, layer, wrappers):
        for name, raw in list(vars(cls).items()):
            if name == "__init__" and cls.__name__ != "TrigPoly":
                continue  # only TrigPoly construction is counted
            if name.startswith("_") and name not in _DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not inspect.isfunction(fn):
                    continue
                wrapped = type(raw)(self._wrap(fn, key, layer))
            elif inspect.isfunction(raw):
                if id(raw) in wrappers:
                    wrapped = wrappers[id(raw)]  # e.g. __radd__ = __add__
                else:
                    wrapped = wrappers[id(raw)] = self._wrap(raw, key, layer)
            else:
                continue  # properties, class attributes
            self._set(cls, name, wrapped)

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name], False))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches = []

    # -- metrics ------------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of everything traced since the last reset."""
        inc, cnt, calls, st = self.incl, self.count, self.calls, self.self_time
        steps = sum(calls[k] for k in _STEP_FUNCTIONS)
        vcalls = self.velocity_calls
        searches = calls["measures.extremal_orbit_search"]
        validated = calls["pbracket.PbProblem.validate_candidate"]
        b1_steps = cnt["integrate_steps"]

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        return {
            "experiments.self_s": (st["experiments"], "s"),
            "geometry.self_s": (st["geometry"], "s"),
            "trig.self_s": (st["trig"], "s"),
            "trig.polys_built": (calls["trig.TrigPoly.__init__"], "count"),
            "trig.construct_s": (inc["trig.TrigPoly.__init__"], "s"),
            "trig.product_calls": (calls["trig.TrigPoly.product"], "count"),
            "trig.product_s": (inc["trig.TrigPoly.product"], "s"),
            "trig.eval_points": (cnt["eval_points"], "count"),
            "trig.eval_s": (sum(inc[f"trig.TrigPoly.{m}"] for m in ("eval", "grad", "dt")), "s"),
            "fields.self_s": (st["fields"], "s"),
            "fields.profiles_built": (calls["fields.make_pinned_profile"], "count"),
            "fields.profile_s": (inc["fields.make_pinned_profile"], "s"),
            "dynamics.velocity_calls": (vcalls, "count"),
            "dynamics.velocity_calls_per_step": (ratio(vcalls, steps), "calls/step"),
            "dynamics.velocity_s": (self.velocity_s, "s"),
            "dynamics.velocity_us_per_call": (ratio(self.velocity_s, vcalls, 1e6), "us"),
            "dynamics.velocity_ns_per_point_term": (
                ratio(self.velocity_s, self.velocity_point_terms, 1e9), "ns"),
            "dynamics.orbit_steps": (steps, "count"),
            "dynamics.step_self_s": (st["dynamics"], "s"),
            "dynamics.us_per_step_b1": (ratio(inc["dynamics.integrate"], b1_steps, 1e6), "us"),
            "dynamics.stiff_steps": (cnt["step_raised.StiffStep"], "count"),
            "measures.self_s": (st["measures"], "s"),
            "measures.search_s": (inc["measures.extremal_orbit_search"], "s"),
            "measures.horizons_run": (cnt["horizons_run"], "count"),
            "measures.converged_frac": (ratio(cnt["searches_converged"], searches), "ratio"),
            "measures.pairing_s": (sum(inc[f"measures.{f}"] for f in (
                "empirical_measure", "rotation_vector", "rotation_pairing")), "s"),
            "pbracket.self_s": (st["pbracket"], "s"),
            "pbracket.pb_upper_s": (inc["pbracket.pb_upper_bound"], "s"),
            "pbracket.objective_evals": (cnt["objective_evals"], "count"),
            "pbracket.feasible_ratio": (ratio(cnt["feasible"], validated), "ratio"),
            "pbracket.bracket_poly_s": (inc["pbracket.bracket_poly"], "s"),
            "pbracket.sup_norm_s": (inc["pbracket._certified_sup"], "s"),
            "pbracket.grid_points": (cnt["grid_points"], "count"),
            "pbracket.chord_s": (inc["pbracket.chord_search"], "s"),
            "pbracket.chord_steps": (cnt["chord_steps"], "count"),
            "suspension.self_s": (st["suspension"], "s"),
            "suspension.map_search_s": (inc["suspension.map_orbit_search"], "s"),
            "suspension.time_one_s": (sum(inc[f"suspension.{f}"] for f in (
                "time_one_orbit", "rotation_pairing_time_one")), "s"),
            "suspension.flow_s": (sum(inc[f"suspension.{f}"] for f in (
                "suspension_flow", "shift_equivariance_check")), "s"),
        }

    def layer_self_times(self):
        """Self time of every layer, with the velocity split out of dynamics."""
        out = {layer: self.self_time[layer] for layer in LAYERS}
        out[VELOCITY] = self.velocity_s
        return out


class _TracedVelocity:
    """A field's velocity, timed and counted; other attributes pass through.

    A velocity call opens no spans inside, so it is timed without touching the
    stack: its time goes to the velocity and is subtracted from the caller.
    """

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self._terms = len(getattr(inner, "amps", ()))

    def __call__(self, X, t=0.0):
        start = time.perf_counter()
        try:
            return self._inner(X, t)
        finally:
            duration = time.perf_counter() - start
            tracer = self._tracer
            tracer.velocity_s += duration
            tracer.velocity_calls += 1
            tracer.velocity_point_terms += len(X) * self._terms
            if tracer.stack:
                tracer.stack[-1][3] += duration

    def __getattr__(self, name):
        return getattr(self._inner, name)


# -- hooks: counters read from a call's arguments and result --------------------

def _points(tracer, args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    tracer.count["eval_points"] += int(np.prod(np.shape(X)[:-1]))


def _step(tracer, args, kwargs, result):
    if tracer.depth["pbracket.chord_search"]:
        tracer.count["chord_steps"] += 1
    if tracer.parent_key() == "dynamics.integrate":
        tracer.count["integrate_steps"] += 1


def _field(tracer, args, kwargs, result):
    result.velocity = _TracedVelocity(tracer, result.velocity)


def _search(tracer, args, kwargs, result):
    report = result[2]
    tracer.count["horizons_run"] += len(report.horizons)
    tracer.count["searches_converged"] += bool(report.converged)


def _validated(tracer, args, kwargs, result):
    tracer.count["feasible"] += bool(result[0])


def _pb_upper(tracer, args, kwargs, result):
    tracer.count["objective_evals"] += sum(r["evals"] for r in result.audit["restarts"])


def _sup_grid(tracer, args, kwargs, result):
    poly = args[0]
    grid_res = args[1] if len(args) > 1 else kwargs["grid_res"]
    if len(poly.coeffs) == 0:
        return
    n_axes = int(np.any(poly.kvecs != 0, axis=0).sum()) + int(np.any(poly.tfreq != 0))
    tracer.count["grid_points"] += grid_res ** n_axes if n_axes else 1


_HOOKS = {
    "trig.TrigPoly.eval": _points,
    "trig.TrigPoly.grad": _points,
    "trig.TrigPoly.dt": _points,
    "dynamics.midpoint_step": _step,
    "dynamics.rk4_step": _step,
    "measures.extremal_orbit_search": _search,
    "pbracket.PbProblem.validate_candidate": _validated,
    "pbracket.pb_upper_bound": _pb_upper,
    "pbracket._certified_sup": _sup_grid,
}
_HOOKS.update({key: _field for key in _FIELD_FACTORIES})

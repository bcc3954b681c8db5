"""Outside-in layer tracing: per-function calls, total and self time.

The tracer wraps, from the benchmark's side, each traced name wherever an
opident module binds it: in the defining module (so calls inside that
module go through the wrapper) and in every module that imported it by
name. Methods are wrapped on their class. Wrappers only pass arguments and
results through, so a traced run computes bit for bit what an untraced run
computes.

Self time is a span's duration minus the time of the traced spans it
encloses. For a recursive function, total time counts the outermost call
only. A traced name that no longer exists is reported as null, not raised,
so the benchmark keeps running after a refactor deletes a layer.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

PACKAGE = "opident"

# (module, qualified name). The first four are the calls the benchmark
# makes; the rest are names one opident module calls in another.
TRACED = (
    ("identities", "run_check_suite_full"),
    ("identities", "alternating_subset_terms"),
    ("recovery", "recover_profile"),
    ("recovery", "validate_recovery"),
    ("identities", "_subset_plan"),
    ("identities", "_terms_from_plan"),
    ("identities", "_power_terms_from_plan"),
    ("identities", "_Aggregator.add"),
    ("operators", "apply"),
    ("operators", "apply_canonical_values"),
    ("recovery", "recover_at_point"),
    ("recovery", "_solve"),
    ("functions", "SmoothFn.eval_jet"),
    ("functions", "fn_product"),
    ("exprs", "eval_jet"),
    ("jets", "_conv"),
    ("jets", "jet_product"),
    ("jets", "jet_linear_combine"),
    ("jets", "jet_exp"),
    ("jets", "jet_ln_abs"),
    ("jets", "jet_reciprocal"),
    ("jets", "jet_sin_cos"),
    ("jets", "jet_power"),
)
EVAL_JET = "functions.SmoothFn.eval_jet"
JET_INIT = ("jets", "Jet.__init__")
PER_SAMPLE = ("jets._conv", "operators.apply")

# (name, unit, better) of every per-layer metric, in output order.
METRICS = tuple(
    (f"{module}.{name}.{stat}", unit, "lower")
    for module, name in TRACED
    for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
) + (
    (f"{EVAL_JET}.hit_ratio", "ratio", "higher"),
    *((f"{key}.calls_per_sample", "count/sample", "lower") for key in PER_SAMPLE),
    ("jets.Jet.count", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _resolve(module: str, qualname: str):
    """(owner, attribute, function), or None when the name is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    fn = vars(owner).get(attr)
    return (owner, attr, fn) if isinstance(fn, types.FunctionType) else None


class Tracer:
    """Install with `install()`, run the work, then `uninstall()` and read
    `metrics()`."""

    def __init__(self):
        self._open = [0.0]  # traced child time of each open span
        self._stats: dict[str, list | None] = {}  # calls, total, self, depth
        self._undo: list[tuple[object, str, object]] = []
        self._lookups = self._hits = 0
        self._jets_built: int | None = None

    def install(self) -> None:
        for module, qualname in TRACED:
            key = f"{module}.{qualname}"
            found = _resolve(module, qualname)
            self._stats[key] = None if found is None else [0, 0.0, 0.0, 0]
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._timed(key, fn)
            if key == EVAL_JET:
                wrapper = self._cache_probe(wrapper)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for mod in self._package_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)
        found = _resolve(*JET_INIT)
        if found is not None:
            self._jets_built = 0
            owner, attr, fn = found
            self._patch(owner, attr, self._counted(fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, samples: int, overhead: float) -> dict:
        values = {}
        for key, st in self._stats.items():
            for i, stat in enumerate(("calls", "total_s", "self_s")):
                values[f"{key}.{stat}"] = None if st is None else st[i]
        values[f"{EVAL_JET}.hit_ratio"] = (
            self._hits / self._lookups if self._lookups else None
        )
        for key in PER_SAMPLE:
            calls = values[f"{key}.calls"]
            values[f"{key}.calls_per_sample"] = None if calls is None else calls / samples
        values["jets.Jet.count"] = self._jets_built
        values["trace.overhead"] = overhead
        return {name: (values[name], unit) for name, unit, _ in METRICS}

    def top_self_time(self, count: int = 5) -> list[tuple[str, float]]:
        ranked = [(key, st[2]) for key, st in self._stats.items() if st is not None]
        return sorted(ranked, key=lambda item: -item[1])[:count]

    @staticmethod
    def _package_modules():
        return [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _timed(self, key: str, fn):
        st = self._stats[key]
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            st[3] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                st[2] += elapsed - children
                st[3] -= 1
                if st[3] == 0:
                    st[1] += elapsed

        return wrapper

    def _cache_probe(self, timed):
        """Counts cache hits of SmoothFn.eval_jet: a lookup is a hit when it
        leaves the function's memo dict the same size (a miss inserts)."""

        def eval_jet(smooth_fn, *args, **kwargs):
            cache = getattr(smooth_fn, "_cache", None)
            if not isinstance(cache, dict):
                return timed(smooth_fn, *args, **kwargs)
            size = len(cache)
            out = timed(smooth_fn, *args, **kwargs)
            self._lookups += 1
            self._hits += len(cache) == size
            return out

        return eval_jet

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self._jets_built += 1
            return fn(*args, **kwargs)

        return wrapper

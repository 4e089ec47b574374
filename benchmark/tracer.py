"""Per-layer tracing applied to ``distmon`` from outside.

The tracer wraps every public function of every ``distmon`` module in each
module namespace that binds it (``compose`` is bound in ``exactlin``,
``distortion``, ``twist``, ``laxfun`` and ``transform``; one wrapper per
original object serves all of them).  Field methods, ``Fraction.__eq__``,
family ``.at`` methods and ``DistortedStructure.__init__`` are wrapped at
class level.  ``functools`` caches report through ``cache_info()``.

Harness calls and checks (``check_*``, ``search_*``, ``classify_*``) each
get a span of their own.  Every other function is aggregated per
(enclosing span, function), since one pass makes ~10^5 kernel calls.
Self time is a call's duration minus the part its wrapped children cover.

Probes are looked up by name.  One that a refactor removed is listed in
``absent`` and its metrics read 0; it never crashes the run.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import inspect
import sys
from fractions import Fraction
from time import perf_counter

# Arithmetic methods of the field classes counted as ``fields.ops``.
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "pow", "from_int",
                 "parse", "fmt", "sample_scalar")

# Kernels whose (field, a, b) matrix arguments are inspected.
KERNEL_PROBES = ("exactlin.mat_mul", "exactlin.kron")

# Caches whose hit ratios are reported (module, function).
CACHES = (("exactlin", "associator"), ("exactlin", "tensor_obj"),
          ("laxfun", "compose_lax"))


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _is_span(module: str, name: str) -> bool:
    return module == "harness" or name.startswith(("check_", "search_", "classify_"))


def _distmon_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "distmon" or key.startswith("distmon."))]


def _traceable(obj) -> bool:
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", "").startswith("distmon.")


def _nonzero_lines(m):
    """(dense entries, monomial?) of a tuple-of-rows matrix.

    Truthiness decides zero-ness so that the probe itself makes no
    ``Fraction.__eq__`` calls.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    used_cols = set()
    monomial = True
    for row in m:
        hit = [c for c, v in enumerate(row) if v]
        if len(hit) > 1 or (hit and hit[0] in used_cols):
            monomial = False
        used_cols.update(hit)
    return rows * cols, monomial


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._originals: dict = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------------
    # recorded data

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.agg: dict[tuple, list] = {}    # (span id, name) -> same
        self.counts: dict[str, int] = {}
        self.kernel: dict[str, list] = {}   # name -> [dense entries, monomial calls]
        self.tuples: dict[str, int] = {}    # span name -> tuples decided
        self.at_calls = 0
        self.at_keys: set = set()
        self._stack = [[0.0, 0]]            # [child time, enclosing span id]
        self._cache_before: dict[str, tuple] = {}
        self.cache_stats: dict[str, dict] = {}

    def begin(self) -> None:
        """Start a measured region: snapshot the cache counters."""
        self.reset()
        self._cache_before = {k: v[:3] for k, v in self._cache_info().items()}

    def end(self) -> None:
        for key, (hits, misses, _max, size) in self._cache_info().items():
            h0, m0, _ = self._cache_before.get(key, (0, 0, None))
            self.cache_stats[key] = {"hits": hits - h0, "misses": misses - m0,
                                     "currsize": size}

    def _cache_info(self) -> dict:
        out = {}
        for module, name in CACHES:
            fn = self._originals.get((module, name))
            info = getattr(fn, "cache_info", None)
            if info is not None:
                out[f"{module}.{name}"] = tuple(info())
        return out

    # ------------------------------------------------------------------
    # wrappers

    def _timed(self, module: str, fn):
        name = f"{module}.{fn.__qualname__}"
        span = _is_span(module, fn.__qualname__)
        probe = name in KERNEL_PROBES
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1]
            if span:
                record = {"id": len(tracer.spans) + 1, "name": name,
                          "parent": parent}
                tracer.spans.append(record)
                frame = [0.0, record["id"]]
            else:
                frame = [0.0, parent]
            if probe:
                tracer._probe_kernel(name, args)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                own = elapsed - frame[0]
                tot = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += own
                if span:
                    record["start"] = start
                    record["s"] = elapsed
                    record["self_s"] = own
                else:
                    agg = tracer.agg.setdefault((parent, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += own
            if span:
                tuples = getattr(getattr(result, "coverage", None),
                                 "object_tuples", None)
                if tuples is not None:
                    record["tuples"] = tuples
                    label = tracer._label(record, args)
                    tracer.tuples[label] = tracer.tuples.get(label, 0) + tuples
                if isinstance(result, str):
                    record["bytes"] = len(result.encode("utf-8"))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _label(record: dict, args) -> str:
        """Span name, refined by the axiom argument of the twist checker."""
        name = record["name"]
        if name == "twist.check_idempotent_axiom" and len(args) > 2 \
                and isinstance(args[2], str):
            name = f"{name}.{args[2]}"
        record["label"] = name
        return name

    def _probe_kernel(self, name: str, args) -> None:
        stats = self.kernel.setdefault(name, [0, 0])
        try:
            a, b = args[1], args[2]
            ea, ma = _nonzero_lines(a)
            eb, mb = _nonzero_lines(b)
        except (IndexError, TypeError):
            self._mark_absent(f"{name}.args")
            return
        stats[0] += ea + eb
        stats[1] += ma and mb

    def _counter(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _family_at(self, module: str, fn):
        timed = self._timed(module, fn)
        tracer = self

        def at(family, *args):
            tracer.at_calls += 1
            tracer.at_keys.add((family, args))
            return timed(family, *args)

        at.__wrapped__ = fn
        return at

    # ------------------------------------------------------------------
    # install / uninstall

    def _mark_absent(self, probe: str) -> None:
        if probe not in self.absent:
            self.absent.append(probe)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _distmon_modules()
        by_name = {_short(m.__name__): m for m in modules}
        self._originals = {}
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _traceable(obj):
                    continue
                home = _short(obj.__module__)
                self._originals.setdefault((home, obj.__name__), obj)
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._timed(home, obj)
                self._set(mod, attr, wrappers[id(obj)])

        for module, name in CACHES:
            if not hasattr(self._originals.get((module, name)), "cache_info"):
                self._mark_absent(f"{module}.{name}.cache_info")

        fields = by_name.get("fields")
        field_classes = [c for c in vars(fields).values()
                         if inspect.isclass(c) and c.__module__ == fields.__name__
                         and "add" in c.__dict__] if fields else []
        if not field_classes:
            self._mark_absent("fields.classes")
        for cls in field_classes:
            for attr in FIELD_METHODS:
                if inspect.isfunction(cls.__dict__.get(attr)):
                    self._set(cls, attr, self._counter("fields.ops",
                                                       cls.__dict__[attr]))
        self._set(Fraction, "__eq__", self._counter("fields.fraction_eq",
                                                    Fraction.__eq__))

        families = 0
        for mod in modules:
            for cls in vars(mod).values():
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                if inspect.isfunction(cls.__dict__.get("at")):
                    families += 1
                    self._set(cls, "at", self._family_at(_short(mod.__name__),
                                                         cls.__dict__["at"]))
        if not families:
            self._mark_absent("family.at")

        distortion = by_name.get("distortion")
        structure = getattr(distortion, "DistortedStructure", None)
        if inspect.isclass(structure) and "__init__" in structure.__dict__:
            self._set(structure, "__init__", self._counter(
                "distortion.structures_built", structure.__dict__["__init__"]))
        else:
            self._mark_absent("distortion.DistortedStructure")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # per-layer metrics

    def metrics(self) -> dict:
        """Per-layer metrics of the last measured region."""
        def total(name, idx):
            row = self.totals.get(name)
            return row[idx] if row else 0

        out = {
            "fields.ops": self.counts.get("fields.ops", 0),
            "fields.fraction_eq": self.counts.get("fields.fraction_eq", 0),
        }
        for fn in ("mat_mul", "kron", "compose", "tensor_map", "graded_map"):
            name = f"exactlin.{fn}"
            out[f"{name}.calls"] = total(name, 0)
            out[f"{name}.self_s"] = total(name, 2)
        for name in ("exactlin.mat_mul", "exactlin.kron"):
            out[f"{name}.dense_entries"] = self.kernel.get(name, [0, 0])[0]
        calls = total("exactlin.mat_mul", 0)
        out["exactlin.mat_mul.monomial_frac"] = (
            self.kernel.get("exactlin.mat_mul", [0, 0])[1] / calls if calls else 0.0)

        def ratio(key):
            st = self.cache_stats.get(key)
            if not st:
                return 0.0
            tried = st["hits"] + st["misses"]
            return st["hits"] / tried if tried else 0.0

        out["exactlin.associator.misses"] = \
            self.cache_stats.get("exactlin.associator", {}).get("misses", 0)
        out["exactlin.associator.hit_ratio"] = ratio("exactlin.associator")
        out["exactlin.tensor_obj.hit_ratio"] = ratio("exactlin.tensor_obj")
        out["laxfun.compose_lax.hit_ratio"] = ratio("laxfun.compose_lax")
        out["laxfun.compose_lax.currsize"] = \
            self.cache_stats.get("laxfun.compose_lax", {}).get("currsize", 0)

        out["reports.first_difference.calls"] = total("reports.first_difference", 0)
        out["reports.first_difference.self_s"] = total("reports.first_difference", 2)
        out["sampling.map_batch.calls"] = total("sampling.map_batch", 0)
        out["sampling.map_batch.self_s"] = total("sampling.map_batch", 2)
        out["distortion.structures_built"] = \
            self.counts.get("distortion.structures_built", 0)
        out["distortion.family_at.hit_ratio"] = (
            1 - len(self.at_keys) / self.at_calls if self.at_calls else 0.0)
        out["transform.horizontal.calls"] = total("transform.horizontal", 0)
        out["transform.horizontal.self_s"] = total("transform.horizontal", 2)
        out["harness.scenario_from_dict.s"] = total("harness.scenario_from_dict", 1)
        out["harness.run_suite.self_s"] = total("harness.run_suite", 2)
        out["harness.emit_report.s"] = total("harness.emit_report", 1)
        out["harness.emit_report.bytes"] = sum(
            r.get("bytes", 0) for r in self.spans
            if r["name"] == "harness.emit_report")

        # One time and one time-per-tuple figure per check that ran.
        seconds: dict[str, float] = {}
        for r in self.spans:
            label = r.get("label")
            if label is not None:
                seconds[label] = seconds.get(label, 0.0) + r["s"]
        for label, s in seconds.items():
            out[f"{label}.s"] = s
            tuples = self.tuples.get(label, 0)
            if tuples:
                out[f"{label}.us_per_tuple"] = s / tuples * 1e6
        search = "twist.search_structural_idempotents"
        if search in self.totals:
            out[f"{search}.s"] = total(search, 1)
        return out

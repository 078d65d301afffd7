"""Spans around vancal's functions, installed from outside the package.

``installed(tracer, vancal)`` wraps every public module-level function of
every ``vancal`` module, the private Pluecker kernel, a few methods named
in ``METHODS`` and the evaluator of every ``FormField`` built meanwhile.
Each wrapper is installed under every module namespace that holds the
original object (``cli`` and ``calibration`` from-import names such as
``comass``), and everything is restored on exit.

Spans record name, start, end, parent span and task index.  They stay in
memory and ``Tracer.save`` writes them out; ``layer_metrics`` turns them
into the per-layer metrics of ``BENCHMARK.json``.  A span's self time is
its duration minus the part of it covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np

# (module, class, method, span name)
METHODS = (
    ("coords", "WedgeCoordinates", "r", "coords.r"),
    ("coords", "WedgeCoordinates", "z", "coords.z"),
    ("calibration", "VanishingCalibration", "pointwise_comass", "calibration.pointwise_comass"),
    ("currents", "Simplex", "tangent_frame", "currents.Simplex.tangent_frame"),
    ("retraction", "RetractionMap", "differential", "retraction.differential"),
    ("reports", "VerificationReport", "to_json", "reports.to_json"),
)
# private functions traced in addition to the public ones: the Pluecker kernel
PRIVATE = (("exterior", "_batched_plucker"),)
FIELD_EVAL = "calibration.field_eval"
# functions whose peak traced allocation is recorded, in a pass of its own
PEAK_ALLOC = ("calibration.verify_calibration", "exterior.comass_oracle")


def _points(array) -> int:
    """Number of points in a (..., N) batch, or 1 for a single point."""
    shape = np.shape(array)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# units of work per call, from the argument shapes; anything else counts calls
UNITS = {
    "coords.r": lambda a, k: _points(_arg(a, k, 1, "points")),
    "coords.z": lambda a, k: _points(_arg(a, k, 1, "points")),
    "calibration.pointwise_comass": lambda a, k: _points(_arg(a, k, 1, "points")),
    "_threads.ordered_map": lambda a, k: len(_arg(a, k, 1, "items")),
    "exterior.comass_oracle": lambda a, k: _arg(a, k, 1, "samples"),
    "currents.integrate_form": lambda a, k: len(_arg(a, k, 0, "current").simplices),
}


def _minors(name, args, kwargs) -> int:
    """Pluecker minors a kernel call computes: frames x C(N, k)."""
    if name == "exterior.frame_plucker":
        frame = np.asarray(_arg(args, kwargs, 0, "frame"))
        return math.comb(_arg(args, kwargs, 1, "ambient_dim"), frame.shape[0])
    frames = _arg(args, kwargs, 0, "frames")
    return frames.shape[0] * math.comb(_arg(args, kwargs, 1, "ambient_dim"),
                                       _arg(args, kwargs, 2, "degree"))


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent index, task, outermost]
        self._stack: list = []
        self._depth: dict = defaultdict(int)  # open spans per name
        self.task = -1
        self.units: dict = defaultdict(float)  # per name, outermost calls only
        self.counters: dict = defaultdict(float)
        self.peaks: dict = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        self._stack.append(index)
        self.spans.append([nid, self.clock(), math.nan, parent, self.task, outermost])
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        self._depth[self.names[span[0]]] -= 1
        self._stack.pop()

    def arrays(self) -> dict:
        spans = self.spans
        return {
            "names": np.array(self.names),
            "name": np.array([s[0] for s in spans], dtype=np.int32),
            "start": np.array([s[1] for s in spans]),
            "end": np.array([s[2] for s in spans]),
            "parent": np.array([s[3] for s in spans], dtype=np.int64),
            "task": np.array([s[4] for s in spans], dtype=np.int32),
            "outermost": np.array([s[5] for s in spans], dtype=bool),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its direct children's intervals."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        covered, reach = 0.0, -math.inf
        for i in sorted(kids, key=lambda i: start[i]):
            lo, hi = max(start[i], reach, start[p]), min(end[i], end[p])
            if hi > lo:
                covered += hi - lo
            reach = max(reach, end[i])
        out[p] -= covered
    return out


# -- wrappers -----------------------------------------------------------------------


def _wrap(fn, name: str, tracer: Tracer):
    units = UNITS.get(name)
    minors = name in ("exterior.frame_plucker", "exterior.batched_plucker")
    warnings_counted = name == "exterior.comass"

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            # one span per item, so the consumer's time between items is not counted
            items = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.units[name] += _points(item)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            if tracer.spans[index][5]:  # outermost span of this name
                tracer.units[name] += units(args, kwargs) if units else 1
            if minors:
                tracer.counters["exterior.plucker.minors"] += _minors(name, args, kwargs)
            if not warnings_counted:
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    tracer.counters["exterior.comass.unconverged"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result
        finally:
            tracer.end(index)

    return traced


def _wrap_peak(fn, name: str, tracer: Tracer):
    """Record the peak tracemalloc allocation of the outermost call."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        if tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tracer.peaks[name] = max(tracer.peaks[name], peak)

    return measured


def _modules() -> dict:
    """The imported vancal submodules by short name."""
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name.startswith("vancal.") and mod is not None}


def _targets() -> list:
    """(owner, attribute, original, span name) for every function to trace."""
    targets = []
    modules = _modules()
    for short, mod in sorted(modules.items()):
        for attr, obj in sorted(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and (short, attr) not in PRIVATE:
                continue
            targets.append((mod, attr, obj, f"{short}.{attr.lstrip('_')}"))
    for short, cls_name, method, span_name in METHODS:
        cls = getattr(modules.get(short), cls_name, None)
        if cls is not None and inspect.isfunction(cls.__dict__.get(method)):
            targets.append((cls, method, cls.__dict__[method], span_name))
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer, vancal, *, memory: bool = False):
    """Trace vancal's functions for the duration of the block, then restore them.

    With ``memory`` only the ``PEAK_ALLOC`` functions are wrapped, to record
    their peak allocation; tracemalloc slows every allocation, so the
    memory pass is kept apart from the timed spans.
    """
    namespaces = [vancal, *_modules().values()]
    restore = []
    try:
        for owner, attr, original, name in _targets():
            if memory and name not in PEAK_ALLOC:
                continue
            wrapper = (_wrap_peak if memory else _wrap)(original, name, tracer)
            if isinstance(owner, type):
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
        if not memory:
            field_cls = vancal.FormField
            original_init = field_cls.__init__

            def traced_init(self, *args, **kwargs):
                original_init(self, *args, **kwargs)
                object.__setattr__(self, "evaluator",
                                   _wrap(self.evaluator, FIELD_EVAL, tracer))

            restore.append((field_cls, "__init__", original_init))
            field_cls.__init__ = traced_init
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------------


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, self seconds, outermost inclusive seconds."""
    arrays = tracer.arrays()
    self_s = self_times(arrays["start"], arrays["end"], arrays["parent"])
    duration = arrays["end"] - arrays["start"]
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = arrays["name"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_s[mask].sum()),
            "s": float(duration[mask & arrays["outermost"]].sum()),
            "units": float(tracer.units.get(name, 0.0)),
        }
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json (0 where a layer did not run)."""
    stats = summarize(tracer)
    empty = {"calls": 0, "self_s": 0.0, "s": 0.0, "units": 0.0}

    def get(name):
        return stats.get(name, empty)

    def per_unit(name, scale):
        st = get(name)
        return st["s"] / st["units"] * scale if st["units"] else 0.0

    grid_points = get("calibration.iter_grid_chunks")["units"]
    return {
        "coords.r.ns_per_point": per_unit("coords.r", 1e9),
        "coords.z.ns_per_point": per_unit("coords.z", 1e9),
        "coords.points_per_grid_point":
            get("coords.r")["units"] / grid_points if grid_points else 0.0,
        "calibration.pointwise_comass.ns_per_point":
            per_unit("calibration.pointwise_comass", 1e9),
        "calibration.iter_grid_chunks.s": get("calibration.iter_grid_chunks")["s"],
        "threads.ordered_map.items": get("_threads.ordered_map")["units"],
        "calibration.verify_calibration.peak_alloc_mb":
            tracer.peaks.get("calibration.verify_calibration", 0.0),
        "exterior.comass.calls": get("exterior.comass")["calls"],
        "exterior.comass.ms_per_call": per_unit("exterior.comass", 1e3),
        "exterior.comass.unconverged": tracer.counters.get("exterior.comass.unconverged", 0),
        "exterior.comass_oracle.us_per_sample": per_unit("exterior.comass_oracle", 1e6),
        "exterior.comass_oracle.peak_alloc_mb": tracer.peaks.get("exterior.comass_oracle", 0.0),
        "exterior.random_orthonormal_frames.self_s":
            get("exterior.random_orthonormal_frames")["self_s"],
        "exterior.plucker.minors": tracer.counters.get("exterior.plucker.minors", 0),
        "calibration.field_eval.us_per_call": per_unit(FIELD_EVAL, 1e6),
        "exterior.evaluate.us_per_call": per_unit("exterior.evaluate", 1e6),
        "exterior.wedge.us_per_call": per_unit("exterior.wedge", 1e6),
        "exterior.interior_product.us_per_call": per_unit("exterior.interior_product", 1e6),
        "exterior.finite_difference_exterior_derivative.calls":
            get("exterior.finite_difference_exterior_derivative")["calls"],
        "currents.integrate_form.us_per_simplex": per_unit("currents.integrate_form", 1e6),
        "currents.Simplex.tangent_frame.us_per_call":
            per_unit("currents.Simplex.tangent_frame", 1e6),
        "currents.read_mesh.s": get("currents.read_mesh")["s"],
        "retraction.differential.us_per_call": per_unit("retraction.differential", 1e6),
        "retraction.plane_volume_scaling.us_per_call":
            per_unit("retraction.plane_volume_scaling", 1e6),
        "cli.main.self_s": get("cli.main")["self_s"],
        "reports.to_json.s": get("reports.to_json")["s"],
        "cutoff.verify_inequality_one.s": get("cutoff.verify_inequality_one")["s"],
        "subspaces.intersect_and_split.s": get("subspaces.intersect_and_split")["s"],
        "fermi.verify_first_order.s": get("fermi.verify_first_order")["s"],
    }

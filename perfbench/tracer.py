"""Traced runs: spans around calls into each shiftlab module, from outside.

``Tracer.installed()`` wraps the public functions listed in ``TARGETS`` at
every module global that binds them (``from .weights import log_cum_window``
copies the name into ``criteria``, ``witness`` and the package, and calls
inside ``weights`` look up its own globals), and restores every original on
exit.  No file under ``src/`` changes.

Two kinds of target:

* span targets record one span per call: name, start, end, parent span, job
  id and thread.  They are called a few hundred times per pass at most.
* leaf targets are hot (``log_cum_window`` runs about 1.3M times per sweep
  pass).  A leaf call records no span; it adds its count, duration and work
  count to the innermost open span of its thread, so trace memory stays
  bounded by the number of span calls.

A span's self time is its duration minus the part of it that its child spans
cover (their union: sweep rows run on a thread pool, so children overlap)
minus the time of the outermost leaf calls made directly under it.  Times are
wall clock: a span on a pool thread includes time spent waiting for the GIL.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SPAN, LEAF = "span", "leaf"
MARK = "__perfbench_wrapper__"

# (module, attribute, kind, work metric, work count from (args, result))
TARGETS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("cli", "run", SPAN, None, None),
    ("covering", "build_log_covering", SPAN, None, None),
    ("covering", "build_graded_covering", SPAN, None, None),
    ("covering", "verify_graded", SPAN, None, None),
    ("covering", "box_union_covers", SPAN, None, None),
    ("covering", "Covering.from_json_dict", SPAN, None, None),
    ("weights", "lipschitz_ratio_profile", SPAN, None, None),
    ("criteria", "check_basic_criterion", SPAN, None, None),
    ("criteria", "check_unif_hypotheses", SPAN, None, None),
    ("criteria", "check_corollary_hypotheses", SPAN, None, None),
    ("criteria", "check_carac_conditions", SPAN, None, None),
    ("witness", "build_witness", SPAN, "merged_rows",
     lambda args, ret: int(bool(ret.collision_indices))),
    ("witness", "eval_analytic", SPAN, None, None),
    ("witness", "sweep_sigma", SPAN, None, None),
    # the window lengths summed by affine-family calls: the scalar kernel's work
    ("weights", "log_cum_window", LEAF, "terms",
     lambda args, ret: args[3] if args[0].variant == "affine" else 0),
    ("weights", "log_cum_windows", LEAF, "elements", lambda args, ret: len(ret)),
    ("weights", "log_cum_prefix", LEAF, "elements", lambda args, ret: len(ret)),
    ("weights", "apply_backward_power", LEAF, None, None),
    ("witness", "locate_cell", LEAF, None, None),
    ("seqspace", "SeqVec.__init__", LEAF, "entries", lambda args, ret: args[0].nnz),
    ("seqspace", "norm", LEAF, None, None),
    ("seqspace", "power", LEAF, None, None),
    ("lognum", "logsumexp", LEAF, None, None),
    ("lognum", "lgamma_ratio", LEAF, None, None),
)
# jsonschema.validate as called from cli: the name cli.jsonschema is proxied
VALIDATE = "cli.validate"


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: Optional[int]
    job: object
    thread: int
    start: float = 0.0
    end: float = 0.0
    work: int = 0
    leaf_time: float = 0.0  # summed duration of the outermost leaf calls under it
    leaves: Dict[str, list] = field(default_factory=dict)  # name -> [calls, s, work]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus child-span cover minus direct leaf time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: max(0.0, s.duration - covered(children.get(s.id, ()), s.start, s.end)
                      - s.leaf_time)
            for s in spans}


def _resolve(module, attr: str):
    """(owner, name) for 'func' or 'Class.method' inside a module."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._lock = threading.Lock()
        self._orphans: Dict[str, list] = {}  # leaf calls with no open span anywhere
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.depth = 0
            return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # a pool thread's first span hangs under the span the main thread has open
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sp = Span(next(self._ids), name, top.id if top else None, self.job,
                  threading.get_ident())
        self.spans.append(sp)
        stack.append(sp)
        sp.start = self.clock()
        return sp

    def _close(self, sp: Span):
        sp.end = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _span_wrapper(self, name: str, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if work is not None:
                sp.work += work(args, ret)
            return ret
        setattr(wrapper, MARK, fn)
        return wrapper

    def _leaf_wrapper(self, name: str, fn, work):
        local, clock = self._local, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            depth = local.depth
            local.depth = depth + 1
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                local.depth = depth
            w = work(args, ret) if work is not None else 0
            if stack:
                owner = stack[-1]  # only this thread touches its own spans
                self._add(owner.leaves, name, dt, w)
                if depth == 0:
                    owner.leaf_time += dt
            else:
                with self._lock:
                    self._add(self._orphans, name, dt, w)
            return ret
        setattr(wrapper, MARK, fn)
        return wrapper

    @staticmethod
    def _add(aggs: Dict[str, list], name: str, dt: float, w: int):
        agg = aggs.get(name)
        if agg is None:
            aggs[name] = [1, dt, w]
        else:
            agg[0] += 1
            agg[1] += dt
            agg[2] += w

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        import jsonschema
        import shiftlab

        self._local.stack = self._main_stack
        self._local.depth = 0
        modules = [m for n, m in sys.modules.items()
                   if (n == "shiftlab" or n.startswith("shiftlab.")) and m is not None]
        for mod_name, attr, kind, _, work in TARGETS:
            owner, name = _resolve(getattr(shiftlab, mod_name), attr)
            raw = owner.__dict__[name]
            make = self._span_wrapper if kind == SPAN else self._leaf_wrapper
            label = f"{mod_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(owner, name, classmethod(make(label, raw.__func__, work)))
                continue
            wrapper = make(label, raw, work)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._patch(mod, key, wrapper)
        proxy = types.SimpleNamespace(**vars(jsonschema))
        proxy.validate = self._span_wrapper(VALIDATE, jsonschema.validate, None)
        self._patch(shiftlab.cli, "jsonschema", proxy)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------------

    @property
    def orphans(self) -> Dict[str, list]:
        """Leaf calls made while no span was open on any thread."""
        return self._orphans


def leaf_totals(spans: List[Span]) -> Dict[str, list]:
    totals: Dict[str, list] = {}
    for s in spans:
        for name, (n, dt, w) in s.leaves.items():
            agg = totals.setdefault(name, [0, 0.0, 0])
            agg[0] += n
            agg[1] += dt
            agg[2] += w
    return totals


def spans_json(spans: List[Span]) -> List[dict]:
    return [{"id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
             "thread": s.thread, "start": s.start, "end": s.end, "work": s.work,
             "leaf_time": s.leaf_time, "leaves": s.leaves} for s in spans]


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-target calls, inclusive and self time and work over ``spans``.

    Every target appears, with zeros when it was not called, so a workload
    that bypasses a layer reports that it did.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}
    for mod_name, attr, kind, work_name, _ in TARGETS + (("cli", "validate", SPAN, None, None),):
        label = f"{mod_name}.{attr}"
        out[f"{label}.calls"] = 0
        out[f"{label}.s"] = 0.0
        if kind == SPAN:
            out[f"{label}.self_s"] = 0.0
        if work_name:
            out[f"{label}.{work_name}"] = 0
    for s in spans:
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.s"] += s.duration
            out[f"{s.name}.self_s"] += own[s.id]
    totals = leaf_totals(spans)
    for mod_name, attr, kind, work_name, _ in TARGETS:
        label = f"{mod_name}.{attr}"
        if kind == SPAN:
            if work_name:
                out[f"{label}.{work_name}"] = sum(s.work for s in spans if s.name == label)
        elif label in totals:
            n, dt, w = totals[label]
            out[f"{label}.calls"] = n
            out[f"{label}.s"] = dt
            if work_name:
                out[f"{label}.{work_name}"] = w
    return out


def leftover_wrappers() -> List[str]:
    """Names in shiftlab modules and classes still bound to a tracer wrapper."""
    found = []
    for n, mod in list(sys.modules.items()):
        if mod is None or not (n == "shiftlab" or n.startswith("shiftlab.")):
            continue
        for key, val in vars(mod).items():
            if hasattr(val, MARK) or (isinstance(val, classmethod) and hasattr(val.__func__, MARK)):
                found.append(f"{n}.{key}")
            if isinstance(val, type) and val.__module__ == n:
                for k2, v2 in vars(val).items():
                    inner = v2.__func__ if isinstance(v2, classmethod) else v2
                    if hasattr(inner, MARK):
                        found.append(f"{n}.{key}.{k2}")
        if n == "shiftlab.cli" and isinstance(getattr(mod, "jsonschema", None),
                                              types.SimpleNamespace):
            found.append("shiftlab.cli.jsonschema")
    return found

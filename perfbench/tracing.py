"""Outside-in tracing of the deltaseries layers.

:meth:`Tracer.install` rebinds the public functions of each module (its
module attributes, so calls inside the module are seen too), the
arithmetic methods of ``scalar.LPoly`` and ``scalar.LRat`` and
``fps.Series.__init__`` to wrappers that time each call.  Nothing in the
package changes; an untraced run installs no wrappers.

Every call is one span: name, start, end, parent span and job id.  Each
thread keeps its own span stack, so suites run on the ``verify`` thread
pool nest under the ``run_suites`` call that started them.  Per name the
tracer sums calls, total time (outermost calls of that name only, so
recursion is not counted twice) and self time (duration minus the child
spans).  Spans of the coarse layers are kept in memory and written out
at the end; the per-coefficient ones (scalar and classical arithmetic,
small series helpers) are only summed, because there are millions.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

from deltaseries import classical, cli, exprparse, fps, presets, scalar, stirling, verify

LAYERS = {
    "scalar": scalar,
    "fps": fps,
    "stirling": stirling,
    "presets": presets,
    "classical": classical,
    "exprparse": exprparse,
    "verify": verify,
    "cli": cli,
}

# ring bookkeeping called around every coefficient operation: a wrapper
# would cost more than the body, so their time stays with the caller
UNWRAPPED = {"scalar.is_zero_scalar", "scalar.ring_of", "scalar.join_ring", "scalar.ring_le",
             "scalar.as_lpoly"}
# the run_* dispatch targets stay inside cli.main's own time, which is
# argument parsing, dispatch and emitting
CLI_ENTRY = "cli.main"
# summed but not kept as spans: called once per coefficient or cell
SUMMED_LAYERS = {"scalar", "classical"}
SUMMED = {"fps.Series.init", "fps.zero", "fps.one", "fps.constant", "fps.t_series", "fps.add",
          "fps.sub", "fps.scale", "fps.shift_down", "fps.shift_up", "fps.derivative",
          "fps.integrate", "fps.egf_coeff", "fps.from_egf"}
RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
            "__truediv__", "__rtruediv__", "__pow__", "divmod", "monic", "eval", "derivative")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
        if inspect.isfunction(target) and target.__module__ == mod.__name__:
            yield name, obj


class _ThreadState:
    __slots__ = ("stack", "stats", "depth", "spans", "ident")

    def __init__(self):
        self.stack = []     # frames: [child seconds, span id of the nearest kept span]
        self.stats = {}     # name -> [calls, total seconds, self seconds]
        self.depth = {}     # name or layer -> calls open on this thread
        self.spans = []
        self.ident = threading.get_ident()


class Tracer:
    def __init__(self):
        self.on = False
        self.job = -1
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo = []
        self._main = self._state()
        self._t0 = time.perf_counter()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, layer, fn):
        keep = layer not in SUMMED_LAYERS and name not in SUMMED
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack, depth = st.stack, st.depth
            if stack:
                parent = stack[-1][1]
            elif st is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1][1]   # a pool thread's first span
            else:
                parent = 0
            sid = next(tracer._ids) if keep else parent
            frame = [0.0, sid]
            outer = depth.get(name, 0) == 0
            outer_layer = depth.get(layer, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                depth[name] -= 1
                depth[layer] -= 1
                stats = st.stats
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dur - frame[0]
                if outer:
                    rec[1] += dur
                rec = stats.get(layer)
                if rec is None:
                    rec = stats[layer] = [0, 0.0, 0.0]
                rec[0] += 1
                if outer_layer:
                    rec[1] += dur
                if keep:
                    st.spans.append((sid, name, t0, t1, parent, tracer.job, st.ident))

        return functools.wraps(fn)(traced)

    def install(self):
        for layer, mod in LAYERS.items():
            for attr, obj in list(_public_functions(mod)):
                name = "%s.%s" % (layer, attr)
                if name in UNWRAPPED or (layer == "cli" and name != CLI_ENTRY):
                    continue
                self._rebind(mod, attr, self._wrap(name, layer, obj))
        for cls in (scalar.LPoly, scalar.LRat):
            name = "scalar.%s.ops" % cls.__name__
            for op in RING_OPS:
                if op in vars(cls):
                    self._rebind(cls, op, self._wrap(name, "scalar", vars(cls)[op]))
        self._rebind(fps.Series, "__init__", self._wrap("fps.Series.init", "fps", fps.Series.__init__))

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.on = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self):
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def stats(self):
        """name -> [calls, total s, self s], summed over threads.  A span's
        children on other threads (the verify pool) are taken off its self
        time as the union of their intervals."""
        out = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, own) in st.stats.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        remote = {}
        for sid, name, t0, t1, parent, job, ident in spans:
            p = by_id.get(parent)
            if p is not None and p[6] != ident and min(t1, p[3]) > max(t0, p[2]):
                remote.setdefault(parent, []).append((max(t0, p[2]), min(t1, p[3])))
        for parent, intervals in remote.items():
            covered, end = 0.0, float("-inf")
            for a, b in sorted(intervals):
                if b > end:
                    covered += b - max(a, end)
                    end = b
            out[by_id[parent][1]][2] -= covered
        return out

    def write(self, path, header):
        spans = [[sid, name, round(t0 - self._t0, 7), round(t1 - self._t0, 7), parent, job, ident]
                 for sid, name, t0, t1, parent, job, ident in self.spans()]
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["id", "name", "start_s", "end_s", "parent", "job",
                                           "thread"], spans=spans), fh, separators=(",", ":"))

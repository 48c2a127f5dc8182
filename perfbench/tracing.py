"""In-memory span recorder that wraps the package's layer boundaries from outside.

`Tracer.install` rebinds, in every module of the package, each public
function defined by the package, plus a few names a module looks up across a
boundary: SciPy's `PchipInterpolator` and `brentq` as `graphtransform` uses
them, `Curve.eval`, and `Series1.__mul__` / `Series2.__mul__`.  Because the
modules import names from each other (`from .series import compose_maps`),
every module's own binding is rebound, and each span is named after the
module that defines the function, so a call is named the same whoever makes
it.  `uninstall` restores every original binding.

Spans (name, start, end, parent) go into flat arrays, not Python objects, so
a run of a million spans stays small.  Self time is a span's duration minus
the durations of its direct children; calls nest strictly in one thread, so
the children cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "invcurve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # what the install hooks read from solver results
        self.records: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self.records, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, hooks=None) -> None:
        """Rebind the layer boundaries of every loaded module of the package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        hooks = hooks or {}
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                if not val.__module__.startswith(PACKAGE + "."):
                    continue
                if id(val) not in wrapped:
                    name = f"{val.__module__.rsplit('.', 1)[1]}.{val.__name__}"
                    wrapped[id(val)] = self.wrap(name, val, hooks.get(name))
                self._set(mod, attr, wrapped[id(val)])

        series = sys.modules[PACKAGE + ".series"]
        gt = sys.modules[PACKAGE + ".graphtransform"]
        self._set(series.Series1, "__mul__", self.wrap("series.Series1.mul", series.Series1.__mul__))
        self._set(series.Series2, "__mul__", self.wrap("series.Series2.mul", series.Series2.__mul__))
        self._set(gt.Curve, "eval", self.wrap("graphtransform.curve_eval", gt.Curve.eval))
        self._set(gt, "brentq", self.wrap("graphtransform.brentq", gt.brentq))
        self._set(gt, "PchipInterpolator", _traced_pchip(self, gt.PchipInterpolator))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())

    def dump(self, path) -> None:
        """Write every span once, as arrays plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _traced_pchip(tracer: Tracer, base):
    # Instances outlive the installation (Curve caches its interpolator), so
    # they record only while the tracer is installed.
    class TracedPchip(base):
        def __init__(self, *args, **kwargs):
            idx = tracer.open("graphtransform.pchip.build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(idx)

        def __call__(self, *args, **kwargs):
            if not tracer.installed:
                return super().__call__(*args, **kwargs)
            idx = tracer.open("graphtransform.pchip.eval")
            try:
                return super().__call__(*args, **kwargs)
            finally:
                tracer.close(idx)

    TracedPchip.__name__ = base.__name__
    return TracedPchip


class SpanSummary:
    """Per-name totals of a recorded span set."""

    def __init__(self, names: list[str], arrs: dict[str, np.ndarray]):
        self.names = names
        self.name_id = arrs["name_id"]
        self.parent = arrs["parent"]
        dur = arrs["end"] - arrs["start"]
        child = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.dur = dur
        self.self_time = dur - child
        k = len(names)
        self.calls = np.bincount(self.name_id, minlength=k)
        self.total = np.bincount(self.name_id, weights=dur, minlength=k)
        self.self_total = np.bincount(self.name_id, weights=self.self_time, minlength=k)

    def _nid(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else int(self.calls[nid])

    def total_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.total[nid])

    def self_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.self_total[nid])

    def mean_s(self, name: str) -> float:
        n = self.count(name)
        return self.total_s(name) / n if n else 0.0

    def mask(self, name: str) -> np.ndarray:
        nid = self._nid(name)
        if nid is None:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == nid

    def under(self, ancestor: str) -> np.ndarray:
        """Boolean mask of spans that have a span named `ancestor` above them."""
        anc = self._nid(ancestor)
        if anc is None:
            return np.zeros(self.name_id.size, dtype=bool)
        inside = bytearray(self.name_id.size)
        is_anc = (self.name_id == anc).tolist()
        # parents always precede their children in recording order
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (inside[p] or is_anc[p]):
                inside[i] = 1
        return np.frombuffer(bytes(inside), dtype=bool)

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s), heaviest self time first."""
        rows = [
            (n, int(self.calls[i]), float(self.total[i]), float(self.self_total[i]))
            for i, n in enumerate(self.names)
        ]
        return sorted(rows, key=lambda r: -r[3])

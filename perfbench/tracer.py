"""Outside-in tracer: wraps maslov's module functions and validators.

Installing the tracer replaces every public function of each maslov module,
and every dataclass ``__post_init__``, with a wrapper that records a span.
The wrapper is patched into every ``maslov`` namespace (and module-level
dict) that holds the original, so cross-module calls are caught too.  Spans
live in flat in-memory arrays (name, start, end, parent, query id) until
``save`` writes them out.  Nothing is wrapped unless ``install`` is called,
so an untraced run executes no wrapper.

Per-element scalar helpers run once per weight or label; wrapping them
would record a span per number, so their time stays in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("core", "measures", "functor", "monad", "convexity", "metrics",
           "openness", "laws", "io", "cli")
SCALAR_HELPERS = frozenset({
    "as_weight", "as_value", "oplus", "odot", "weight_distance",
    "encode_weight", "decode_weight", "decode_value", "encode_label",
    "decode_label", "rand_weight",
})
ROOT = "query"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.name_ids: dict[str, int] = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.query = -1
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.qid.append(self.query)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_query(self, qid: int, fn):
        """Run one query under a root span; returns fn's result."""
        self.query = qid
        idx = self.open(0)
        try:
            return fn()
        finally:
            self.close(idx)

    # -------------------------------------------------------------- patching
    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tr = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so consumer time is not charged here
                it = fn(*args, **kwargs)
                while True:
                    idx = tr.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr.close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tr.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"maslov.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SCALAR_HELPERS):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                        and "__post_init__" in vars(obj)):
                    orig = vars(obj)["__post_init__"]
                    self._set(obj, "__post_init__", self._wrap(orig, f"validate.{obj.__name__}"))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "maslov" or modname.startswith("maslov.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrappers:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[id(val)]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -------------------------------------------------------------- analysis
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "qid": np.array(self.qid, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def in_queries(self) -> np.ndarray:
        """Mask of spans under a query root; output checks call maslov too."""
        a = self.arrays()
        parent = a["parent"]
        top = np.arange(len(parent))
        up = parent.copy()
        while (live := up >= 0).any():
            top[live] = up[live]
            up[live] = parent[up[live]]
        return a["name"][top] == 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays()
        keep = self.in_queries()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = keep & (a["parent"] >= 0)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        names, dur, self_time = a["name"][keep], dur[keep], (dur - child)[keep]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())

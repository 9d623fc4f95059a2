"""In-memory span tracer that wraps the program's functions from outside.

A span is (label, start, end, parent).  Wrapping replaces an attribute on its
owner -- a module, a class, or a dict such as ``verify.CHECKS`` -- so every
call that looks the name up at call time goes through the wrapper, including
bare-name calls inside the defining module.  ``restore`` puts the originals
back.  The wrapper only reads the clock; it never touches arguments or
results, so a traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

# The modules of the lab that the benchmark measures, in dependency order.
LAYERS = ("data", "nn", "loss", "linalg", "curvature", "optim", "diagnostics",
          "training", "verify")


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # --- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, label: str, variant=None) -> None:
        """Trace calls of ``owner.attr`` (or ``owner[attr]`` for a dict) as
        spans named ``label``; ``variant(args, kwargs)`` appends a suffix
        such as the layer index."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        labels, starts, ends, parents, open_ = (
            self.labels, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(labels)
            labels.append(label if variant is None else f"{label}.{variant(args, kwargs)}")
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn, is_dict))

    def wrap_module(self, module, skip=()) -> None:
        """Trace every public function defined in ``module``."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or name in skip or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            self.wrap(module, name, f"{layer}.{name}", VARIANTS.get(f"{layer}.{name}"))

    def restore(self) -> None:
        for owner, attr, fn, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._patches.clear()

    # --- reading spans --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for slicing out the spans of one round."""
        return len(self.labels)

    def self_times(self, first: int = 0, last: int | None = None):
        """Per label: (calls, self seconds) over spans ``first:last``.  A
        span's self time is its duration minus its direct children's."""
        last = len(self.labels) if last is None else last
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child[p] += self.ends[i] - self.starts[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(first, last):
            label = self.labels[i]
            calls[label] += 1
            self_s[label] += self.ends[i] - self.starts[i] - child[i]
        return calls, self_s

    def dump(self, path, extra: dict) -> None:
        """Write every span as columns: label id, start/end in ns from the
        first span, parent index (-1 for a root)."""
        names = sorted(set(self.labels))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            **extra,
            "labels": names,
            "label": [ids[n] for n in self.labels],
            "start_ns": [round((t - t0) * 1e9) for t in self.starts],
            "end_ns": [round((t - t0) * 1e9) for t in self.ends],
            "parent": self.parents,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Functions whose spans are split by one argument: the preconditioner by
# weight layer, the normalized traces by curvature kind.
VARIANTS = {
    "curvature.apply_preconditioner": lambda a, k: f"layer{_arg(a, k, 1, 'layer')}",
    "curvature.normalized_trace": lambda a, k: _arg(a, k, 0, "kind"),
}

"""In-memory span tracer, percentiles and computed conv costs for the benchmark.

The tracer records spans around calls into armsentinel's public functions by
swapping module and class attributes for timing wrappers while it is
installed. Nothing in the package changes; uninstalling restores every
attribute. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans are tuples (id, parent_id, unit_id, name, detail, start_s, end_s).

    `unit` is the id shared by every span of one train step, guard frame or
    eval job; `counts` holds per-unit counters (nodes, computed conv flops)
    that wrappers add to while the tracer is installed.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unit: int | None = None
        self.traced_units: list[int] = []
        self._open: list[tuple] = []
        self._next_id = 1
        self._patches: list[tuple] = []
        self.installed = False

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, detail: str | None = None) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, parent, self.unit, name, detail, _clock()))

    def end(self) -> None:
        end = _clock()
        self.spans.append(self._open.pop() + (end,))

    def write(self, path: str | Path) -> None:
        keys = ("id", "parent", "unit", "name", "detail", "start", "end")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- wrappers ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Register `wrapper(original)` to replace `owner.attr` while installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, wrapper(original)))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def timed(self, name: str):
        """Wrapper factory: one span per call."""
        def wrap(fn):
            def wrapper(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
            return wrapper
        return wrap

    def op(self, name: str, detail=None, cost=None):
        """Wrapper factory for a tensor primitive.

        Records `<name>.fwd` around the call and swaps the returned node's
        backward closure for one that records `<name>.bwd`.
        `detail(args, kwargs)` names the shape and `cost(args, kwargs,
        backward)` gives the call's computed (flops, bytes).
        """
        def wrap(fn):
            def wrapper(*args, **kwargs):
                key = detail(args, kwargs) if detail is not None else None
                self.begin(name + ".fwd", key)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end()
                if cost is not None:
                    self._add_cost(*cost(args, kwargs, False))
                inner = out._backward
                if inner is not None:
                    def backward(go):
                        self.begin(name + ".bwd", key)
                        try:
                            inner(go)
                        finally:
                            self.end()
                        if cost is not None:
                            self._add_cost(*cost(args, kwargs, True))
                    out._backward = backward
                return out
            return wrapper
        return wrap

    def count(self, name: str, value: float) -> None:
        """Add to a per-unit counter; work outside a traced unit is not counted."""
        if self.unit is not None:
            self.counts[name] += value

    def _add_cost(self, flops: int, nbytes: int) -> None:
        self.count("tensor.conv.flops", flops)
        self.count("tensor.conv.bytes", nbytes)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[5], span[6]))
    result = {}
    for sid, _, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


# ---------------------------------------------------------------------------
# statistics


def _rank(q: float, n: int) -> int:
    # round() keeps 0.95 * 200 at rank 190 instead of 190.00000000000003 -> 191
    return max(1, math.ceil(round(q * n, 9)))


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, valid only with ten samples beyond it.

    The q-th percentile is the ceil(q * n)-th smallest sample. A tail read
    from fewer than ten samples above it is mostly noise, so that case
    raises instead of returning a number.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q} outside (0, 1)")
    n = len(samples)
    rank = _rank(q, n)
    if n - rank < 10:
        raise ValueError(f"p{q * 100:g} of {n} samples has {n - rank} beyond it, need 10")
    return sorted(samples)[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count whose q-th percentile has ten samples beyond it."""
    n = 11
    while n - _rank(q, n) < 10:
        n += 1
    return n


# ---------------------------------------------------------------------------
# computed conv cost


def conv_cost(op: str, x_shape, k_shape, stride: int, padding: int,
              itemsize: int = 4, backward: bool = False) -> tuple[int, int]:
    """Computed (flops, bytes) of one conv call from its shapes.

    Counts a multiply-add as two flops and bytes as each operand read or
    written once; nothing here is measured. The backward pass computes the
    input and kernel gradients, so it does twice the forward flops, reads
    the output gradient, input and kernel, and writes both gradients.
    """
    n, c_in, h, w = x_shape
    k = k_shape[2]
    if op == "conv2d":
        c_out = k_shape[0]
        ho = (h + 2 * padding - k) // stride + 1
        wo = (w + 2 * padding - k) // stride + 1
        macs = n * c_out * ho * wo * c_in * k * k
    elif op == "conv_transpose2d":
        c_out = k_shape[1]
        ho = (h - 1) * stride - 2 * padding + k
        wo = (w - 1) * stride - 2 * padding + k
        macs = n * c_in * h * w * c_out * k * k
    else:
        raise ValueError(f"conv_cost: unknown op {op!r}")
    x_elems = n * c_in * h * w
    k_elems = math.prod(k_shape)
    out_elems = n * c_out * ho * wo
    if backward:
        return 4 * macs, (out_elems + 2 * x_elems + 2 * k_elems) * itemsize
    return 2 * macs, (x_elems + k_elems + out_elems) * itemsize

"""Host-speed gauge: a fixed pure-Python reference chunk timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over stretches of ten seconds to minutes: one second of
CPU time does from 0.7x to 1.4x its usual work, so ``process_time``
drifts as much as wall time.  A run of 20 s lands in one
such stretch, and its raw times move with it.

The gauge measures that speed next to the work.  Between ops, the
benchmark times chunks of a fixed reference computation that uses no
library code: slotted objects hashed into a dict, frozensets and tuples
from ``itertools.product``, a JSON round trip, and a scattered walk over
a heap of objects larger than a core's private cache, the operations the
library's own time goes to.  Each op's chunks run for ``SHARE`` of its
time, and at least one chunk runs after every op or few ops.  An op's time is then scaled by
``NOMINAL_S / (median chunk time around it)``, which gives the time the op
would take on a host that runs a chunk in ``NOMINAL_S``.  A change to the
library changes op times and leaves the chunk alone, so it shows in full.

``NOMINAL_S`` is a fixed constant, close to the chunk's median time on a
2-vCPU Intel Xeon KVM guest under Python 3.11.  The
chunk adds about 4 MB to peak memory for its heap.
"""
from __future__ import annotations

import gc
import itertools
import json
import statistics
import time

NOMINAL_S = 1.9e-3
# Chunks are run for this share of the op time they gauge.
SHARE = 0.2


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


_DOC = {"rows": [{"x": i, "y": [i, i + 1, str(i)], "z": {"k": i * 0.5}} for i in range(24)]}
# A heap of objects larger than a core's private cache, visited in a
# scattered order: the library's object graphs are, and a small chunk that
# stays in cache speeds up more than the library when the host speeds up.
_HEAP = [_Cell(i & 255, i % 251) for i in range(1 << 16)]
_STRIDE = 40503  # odd, so the walk visits every cell once per lap
_walk = [0]


def _chunk() -> int:
    seen, acc = {}, 0
    for i in range(400):
        cell = _Cell(i & 31, (i >> 5) & 7)
        seen[cell] = seen.get(cell, 0) + 1
        acc ^= hash(frozenset((i & 7, i & 3)))
    for t in itertools.product(range(4), repeat=4):
        acc += len(frozenset(t)) + hash(tuple(sorted(t))) % 3
    acc += len(json.loads(json.dumps(_DOC, sort_keys=True))["rows"])
    at, heap, mask = _walk[0], _HEAP, len(_HEAP) - 1
    for _ in range(2400):
        cell = heap[at]
        acc += cell.a + cell.b
        at = (at + _STRIDE) & mask
    _walk[0] = at
    return acc


def block(busy_s: float) -> list:
    """Time chunks for about `busy_s` seconds, at least one; the chunk
    times.  The collector is held off meanwhile, and a chunk keeps none of
    what it allocates, so no collection is moved into or out of an op."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + busy_s
        while True:
            start = time.perf_counter()
            _chunk()
            stop = time.perf_counter()
            times.append(stop - start)
            if stop >= end:
                return times
    finally:
        if enabled:
            gc.enable()


def scale(chunks) -> float:
    """The factor that turns a time measured beside `chunks` into a time at
    the nominal host speed."""
    return NOMINAL_S / statistics.median(chunks)

"""A fixed yardstick for the speed of the machine while a run measures.

A shared machine's speed drifts by tens of percent over seconds and minutes,
much more than the bounds a benchmark can set.  The run therefore times this
fixed kernel every few tens of milliseconds between queries and scales each
raw time by the kernel's reference time over its median time nearby.  The
kernel is pure Python of the library's flavour (coordinate splicing,
restricted-growth relabeling, sparse polynomials with ``Fraction``
coefficients, small objects built and formatted) and never changes with the program, so it moves only with the
machine.  Never edit the kernel or ``REFERENCE_S``: results measured with
different yardsticks are not comparable.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from fractions import Fraction

REFERENCE_S = 0.004  # the kernel's time at the reference speed
EVERY_S = 0.05  # time the kernel again after this much measured work
WINDOW_S = 1.0  # a time is scaled by the kernel's median within this distance

_STRIDES = (12, 4, 1)
_COORDS = tuple((s // 12 % 2, s // 4 % 3, s % 4) for s in range(24))


def kernel() -> int:
    acc = 0
    for mask in (1, 2, 4, 5, 3, 6, 7, 0):
        for s in range(24):
            cs = _COORDS[s]
            for t in range(24):
                ct = _COORDS[t]
                code = 0
                for j in range(3):
                    code += (cs[j] if mask >> j & 1 else ct[j]) * _STRIDES[j]
                acc += code
    for k in range(40):
        owner = {e: (e * k) % 5 for e in range(24)}
        relabel: dict[int, int] = {}
        ids = tuple(relabel.setdefault(owner[e], len(relabel)) for e in sorted(owner))
        acc += len(ids) + hash(ids) % 3
    terms: dict[tuple, Fraction] = {}
    for i in range(60):
        mono = tuple(sorted(((i % 3, i % 2), (i % 4, 1))))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(i + 1, 97) * Fraction(3, i + 7)
    nodes = []
    for i in range(120):
        node = _Node(f"option-{i}", {"dest": i, "help": "x" * (i % 7)})
        node.children.append(_Node(str(i), None))
        nodes.append(node)
        acc += len(" ".join((node.name, repr(node.value))))
    return acc + len(terms) + len(nodes)


class _Node:
    """Small objects built and formatted, as argument parsing and file loading do."""

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = value
        self.children: list[_Node] = []


class Yardstick:
    """Kernel times taken during a run, and the speed scale they imply."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self._next = end + EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scales(self, times: array) -> list[float]:
        """``REFERENCE_S`` over the kernel's median time within ``WINDOW_S`` of each time."""
        at, took = self.at, self.took
        local = []
        for t in at:
            lo = bisect.bisect_left(at, t - WINDOW_S)
            hi = bisect.bisect_right(at, t + WINDOW_S)
            local.append(REFERENCE_S / statistics.median(took[lo:hi]))
        out = []
        for t in times:
            k = bisect.bisect_left(at, t)
            if k == len(at) or (k > 0 and t - at[k - 1] < at[k] - t):
                k -= 1
            out.append(local[k])
        return out

"""Measurement plumbing for the simtkit benchmark: spans, patches, counting
and machine-speed calibration.

Nothing here imports simtkit. The tracer swaps wrappers into public call
sites of the program (module functions, class attributes, instance methods)
and restores them afterwards; spans stay in memory until the pass ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MISSING = object()

# Candidate tail percentiles, in tenths of a percent, highest first.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(n_samples: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for permille in _TAIL_PERMILLE:
        if n_samples * (1000 - permille) >= 10 * 1000:
            return permille / 10
    raise ValueError(f"{n_samples} samples leave fewer than ten beyond the median")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    request: tuple | None   # (cell, sentence) or the workload's equivalent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replaces attributes and puts every one back, last patched first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        own = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the attribute came from the class
            else:
                setattr(owner, attr, own)


class Tracer:
    """In-memory span recorder.

    A disabled tracer patches nothing and records nothing, so the timed runs
    execute the program's own call sites.
    """

    def __init__(self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span | None] = []
        self.request: tuple | None = None
        self._stack: list[int] = []
        self.patcher = Patcher()

    def _open(self) -> tuple:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, self.request, self.clock()

    def _close(self, name: str, opened: tuple) -> None:
        end = self.clock()
        index, parent, request, start = opened
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, request)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened)
        return traced

    def trace(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of owner.attr."""
        if self.enabled:
            self.patcher.patch(owner, attr, lambda fn: self.wrap(name, fn))

    def restore(self) -> None:
        self.patcher.restore()

    def take(self) -> list[Span]:
        """The spans recorded so far, which are then forgotten."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans  # type: ignore[return-value]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_stats(spans: list[Span]) -> dict[str, SpanStats]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the time its direct children cover;
    children of one parent run one after another, so their durations add.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.duration
    out: dict[str, SpanStats] = {}
    for span, covered in zip(spans, child_s):
        stats = out.setdefault(span.name, SpanStats())
        stats.calls += 1
        stats.total_s += span.duration
        stats.self_s += span.duration - covered
    return out


# Median time of calibration_kernel() on the machine the baseline was
# recorded on (2-vCPU Xeon VM, one BLAS thread).
REFERENCE_KERNEL_S = 0.025

_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.standard_normal((12, 32))
_KERNEL_B = _KERNEL_RNG.standard_normal((32, 32))


def calibration_kernel() -> float:
    """Fixed work in the mix simtkit does: small matmuls, softmax-like numpy
    calls and Python dict and float handling. It never touches simtkit."""
    acc = 0.0
    seen: dict[tuple[int, int], float] = {}
    for i in range(3600):
        x = _KERNEL_A @ _KERNEL_B
        e = np.exp(x[-1] - x[-1].max())
        acc += float(e.sum())
        seen[(i % 97, i % 13)] = acc
    return acc


class Calibrator:
    """Tracks how fast the machine runs while a workload is measured.

    On a shared machine the same work can take 20% longer for minutes at a
    time. The calibrator times calibration_kernel() between operations, at
    most every ``interval`` seconds, and scale() converts a time measured in
    this run to the reference speed. An interval of None calibrates only on
    explicit run() calls.
    """

    def __init__(self, interval: float | None, clock: Callable[[], float] = time.perf_counter):
        self.interval = interval
        self.clock = clock
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def maybe(self) -> None:
        if self.interval is not None and self.clock() - self._last >= self.interval:
            self.run()

    def run(self) -> None:
        start = self.clock()
        calibration_kernel()
        self._last = self.clock()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def scale(self, since: int = 0) -> float:
        """Multiply a time measured since sample ``since`` by this to get the
        time at the reference speed."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[since:])


def scaled(value: float, unit: str, scale: float) -> float:
    """A measured value converted to the reference speed: times grow with
    the scale, rates shrink, counts and sizes stay."""
    if unit in ("s", "ms", "us"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


class CountingModel:
    """Delegates to a model and counts the forward passes asked of it.

    ``next_dist`` calls count one forward each; ``loss_and_grads`` counts
    one forward per batch item and the target tokens it scores.
    """

    def __init__(self, model):
        self.model = model
        self.next_dist_calls = 0
        self.train_items = 0
        self.train_tokens = 0

    def next_dist(self, source_prefix, target_prefix):
        self.next_dist_calls += 1
        return self.model.next_dist(source_prefix, target_prefix)

    def loss_and_grads(self, batch):
        self.train_items += len(batch)
        self.train_tokens += sum(len(item[1]) for item in batch)
        return self.model.loss_and_grads(batch)

    def __getattr__(self, name):
        return getattr(self.model, name)

    def forwards(self) -> int:
        return self.next_dist_calls + self.train_items

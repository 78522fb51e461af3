"""In-memory spans and counters wrapped around calls into roughmap's layers.

Nothing here changes roughmap: `installed()` rebinds names the engine looks
up at call time (the enumeration iterators and claim entry points that
`roughmap.search` imported, `kernels.select`, `GroupContext.relmap`) to
timing wrappers, and restores them on exit.  Each wrapped call is a span;
a span's self time is its duration minus the time of the spans it called.
Fine-grained spans are aggregated per name; the coarse ones the benchmark
opens itself (`Tracer.call`) are kept whole, with start, end and parent,
and written out when the run ends.

Layers are the name prefixes: enumeration, kernels, claims, search, docio.
"""

from __future__ import annotations

import concurrent.futures
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ENUMERATION_FNS = (
    "iter_rgs", "iter_surjections", "iter_canonical_surjections",
    "iter_tables", "iter_canonical_tables",
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list[dict] = []  # coarse spans, kept whole
        self._stack: list[float] = []  # child time of each open span
        self._open: list[int] = []  # ids of open coarse spans
        self._origin = perf_counter()

    def _close(self, name: str, dt: float) -> None:
        child = self._stack.pop()
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def timed(self, name: str, fn):
        """fn wrapped as an aggregated span."""
        stack, close = self._stack, self._close

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - t0)

        return wrapper

    def timed_iter(self, name: str, fn):
        """Generator function fn wrapped so each step is a span; counts items."""
        stack, close, counters = self._stack, self._close, self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(name, perf_counter() - t0)
                counters[name + ".yielded"] += 1
                yield item

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn as a coarse span that is recorded whole."""
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._open.append(span_id)
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._close(name, t1 - t0)
            self._open.pop()
            self.spans[span_id].update(start_s=t0 - self._origin, end_s=t1 - self._origin)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))


class Untraced:
    """Stand-in for Tracer when tracing is off: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextmanager
def _patched(patches):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def _kernel_proxy(tracer: Tracer, module):
    ns = {}
    for name in dir(module):
        value = getattr(module, name)
        if not name.startswith("_") and callable(value) and not isinstance(value, type):
            value = tracer.timed("kernels." + name, value)
        ns[name] = value
    return types.SimpleNamespace(**ns)


@contextmanager
def installed(tracer: Tracer):
    """Spans around the enumeration, claims and kernels calls of the engine."""
    from roughmap import claims, kernels, search

    proxies = {}
    select = kernels.select

    def traced_select(*args, **kwargs):
        module = select(*args, **kwargs)
        proxy = proxies.get(module)
        if proxy is None:
            proxy = proxies[module] = _kernel_proxy(tracer, module)
        return proxy

    patches = [
        (search, fn, tracer.timed_iter("enumeration." + fn, getattr(search, fn)))
        for fn in ENUMERATION_FNS
    ]
    patches += [
        (search, "evaluate_raw", tracer.timed("claims.evaluate_raw", search.evaluate_raw)),
        (search, "GroupContext", tracer.timed("claims.GroupContext", search.GroupContext)),
        (claims.GroupContext, "relmap", tracer.counted("claims.relmap_lookups", claims.GroupContext.relmap)),
        (kernels, "select", traced_select),
    ]
    with _patched(patches):
        yield


@contextmanager
def pool_wait_timed(tracer: Tracer):
    """Time the engine spends blocked on process-pool results."""

    class WaitTimedPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            fut = super().submit(fn, *args, **kwargs)
            fut.result = tracer.timed("search.pool_wait", fut.result)
            return fut

    with _patched([(concurrent.futures, "ProcessPoolExecutor", WaitTimedPool)]):
        yield

"""Exhaustive counterexample search over bounded universes.

Instances are enumerated in one canonical order: increasing |U|, then |V|,
then the map table, then the partition encodings, then the subset mask.
Within a group a partition is a `claims` handle: up to 7 elements the lex
index of its relation, above that the packed relation itself; only the
failures kept are turned back into rgs.
`falsify` stops at the first failing instance; `verify` sweeps the whole
space.  Work is sharded by (claim, |U|, |V|, map) groups.  On one worker the
whole sweep is one task; on more, runs of consecutive groups are packed into
tasks of about TASK_INSTANCES instances.  The first task runs in the calling
process, so a falsify that stops inside it never waits on the pool and a
sweep of one task never starts one; the rest are handed to one process pool
that lives as long as this process and serves every call with the same
worker count.
Task results are merged in submission order, the caller's first, so the
first counterexample, the failure list and every tally are independent of
the worker count.

falsify enumerates one map per codomain-relabeling orbit (relabeling V
commutes with every claim); verify enumerates all maps.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .claims import Claim, GroupContext, Instance, Outcome, get_claim, evaluate_raw, size_tables
# iter_rgs is not called here; perfbench/tracing.py wraps it with the other enumeration streams
from .enumeration import bell, iter_canonical_surjections, iter_canonical_tables, iter_rgs, iter_surjections, iter_tables
from .errors import WorkerCrashError
from .mappings import SurjMap
from .structures import Partition, Subset, Universe

DEFAULT_MAX_FAILURES = 20
# closed-form instances per pool task: pickling and IPC are paid per task,
# and 5,000-50,000 run alike on two workers
TASK_INSTANCES = 20_000

_HOLDS = Outcome.HOLDS
_VACUOUS = Outcome.VACUOUS
_ILL_TYPED = Outcome.ILL_TYPED


@dataclass(frozen=True)
class RawInstance:
    """Picklable instance encoding; labels are attached only at the IO layer."""

    n: int
    m: int
    table: tuple[int, ...]
    partitions: tuple[tuple[int, ...], ...]
    xmask: Optional[int] = None

    def to_instance(self, u: Optional[Universe] = None, v: Optional[Universe] = None) -> Instance:
        u = u or Universe(self.n)
        v = v or Universe(self.m)
        f = SurjMap(u, v, self.table)
        parts = tuple(Partition(u, rgs) for rgs in self.partitions)
        x = Subset(u, self.xmask) if self.xmask is not None else None
        return Instance(f, parts, x)


@dataclass
class Tally:
    holds: int = 0
    fails: int = 0
    ill_typed: int = 0
    vacuous: int = 0

    def add(self, other: "Tally") -> None:
        self.holds += other.holds
        self.fails += other.fails
        self.ill_typed += other.ill_typed
        self.vacuous += other.vacuous

    @property
    def total(self) -> int:
        return self.holds + self.fails + self.ill_typed + self.vacuous

    def as_dict(self) -> dict[str, int]:
        return {
            "holds": self.holds,
            "fails": self.fails,
            "ill_typed": self.ill_typed,
            "vacuous": self.vacuous,
        }


@dataclass
class SearchReport:
    claim_id: str
    mode: str  # falsify | verify
    max_u: int
    max_v: int
    tally: Tally
    first_counterexample: Optional[RawInstance] = None
    witness: Optional[dict] = None
    failures: list[tuple[RawInstance, dict]] = field(default_factory=list)
    ill_typed_reason: Optional[str] = None
    groups: int = 0
    elapsed_s: float = 0.0
    workers: int = 1

    @property
    def instances(self) -> int:
        return self.tally.total

    @property
    def found(self) -> bool:
        return self.tally.fails > 0


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("ROUGHMAP_WORKERS", "1")))
    except ValueError:
        return 1


def _map_tables(claim: Claim, n: int, max_v: int, canonical: bool) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(m, table) pairs for one |U| in canonical order."""
    if claim.map_constraint == "bijective":
        if n <= max_v:
            tables = [tuple(range(n))] if canonical else itertools.permutations(range(n))
            for t in tables:
                yield n, tuple(t)
        return
    if claim.map_constraint == "surjective":
        for m in range(1, min(n, max_v) + 1):
            src = iter_canonical_surjections(n, m) if canonical else iter_surjections(n, m)
            for t in src:
                yield m, t
        return
    for m in range(1, max_v + 1):
        src = iter_canonical_tables(n, m) if canonical else iter_tables(n, m)
        for t in src:
            yield m, t


def _groups(claim: Claim, max_u: int, max_v: int, canonical: bool) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    for n in range(1, max_u + 1):
        for m, table in _map_tables(claim, n, max_v, canonical):
            yield n, m, table


def _run_task(args: tuple) -> tuple[int, Tally, list[tuple[RawInstance, dict]], Optional[str]]:
    """Evaluate every instance of a run of consecutive (n, m, table) groups
    of one claim, in order: the caller's first task, on one worker the
    whole sweep, or a pool task.

    Returns (groups done, tally, failures capped at max_failures, first
    ill-typed reason).  In stop-on-fail mode the task ends at its first
    failure, and everything after it is left uncounted.
    """
    claim_id, groups, stop_on_fail, max_failures = args
    claim = get_claim(claim_id)
    holds = vacuous = ill_typed = failed = 0
    fails: list[tuple[RawInstance, dict]] = []
    reason: Optional[str] = None
    done = 0
    for n, m, table in groups:
        ctx = GroupContext(size_tables(n), size_tables(m), table)
        done += 1
        handles = ctx.sizes.handles()
        seconds = handles if claim.partitions == 2 else (None,)
        xmasks = range(1 << n) if claim.needs_subset else (None,)
        for h1, h2, xmask in itertools.product(handles, seconds, xmasks):
            verdict = evaluate_raw(claim_id, ctx, h1, h2, xmask)
            outcome = verdict.outcome
            if outcome is _HOLDS:
                holds += 1
            elif outcome is _VACUOUS:
                vacuous += 1
            elif outcome is _ILL_TYPED:
                ill_typed += 1
                if reason is None:
                    reason = verdict.reason
            else:
                failed += 1
                if len(fails) < max_failures:
                    parts = (ctx.sizes.rgs(h1),) if h2 is None else (ctx.sizes.rgs(h1), ctx.sizes.rgs(h2))
                    fails.append((RawInstance(n, m, table, parts, xmask), verdict.witness))
                if stop_on_fail:
                    return done, Tally(holds, failed, ill_typed, vacuous), fails, reason
    return done, Tally(holds, failed, ill_typed, vacuous), fails, reason


def _group_size(claim: Claim, n: int) -> int:
    """Closed-form instance count of one group on n elements."""
    if claim.partitions == 2:
        return bell(n) ** 2
    if claim.needs_subset:
        return bell(n) << n
    return bell(n)


def _tasks(claim: Claim, groups: Iterator[tuple[int, int, tuple[int, ...]]]) -> Iterator[list[tuple[int, int, tuple[int, ...]]]]:
    """Consecutive groups packed until their instance count reaches TASK_INSTANCES."""
    batch: list[tuple[int, int, tuple[int, ...]]] = []
    instances = 0
    for group in groups:
        batch.append(group)
        instances += _group_size(claim, group[0])
        if instances >= TASK_INSTANCES:
            yield batch
            batch, instances = [], 0
    if batch:
        yield batch


# this process's search pool as (workers, pid, executor, exit hook); a
# forked child sees its parent's entry under another pid and starts its own
_pool: Optional[tuple] = None


def _start_worker() -> None:
    import signal
    # workers ignore Ctrl-C: the parent stops the sweep and drops the pool,
    # and an idle pool must outlive a Ctrl-C at an interactive prompt
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _get_pool(workers: int):
    global _pool
    if _pool is not None and _pool[:2] == (workers, os.getpid()):
        return _pool[2]
    _drop_pool()
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize

    executor = ProcessPoolExecutor(workers, initializer=_start_worker)
    # shut the pool down at exit while the interpreter is whole: from
    # atexit in the main process, and at the end of a multiprocessing child,
    # which would otherwise wait forever on the pool's workers; priority 20
    # runs before the pool's own queues close theirs (priority 10)
    hook = Finalize(None, _drop_pool, exitpriority=20)
    _pool = (workers, os.getpid(), executor, hook)
    return executor


def _drop_pool() -> None:
    """Shut down this process's search pool, if it has one."""
    global _pool
    held, _pool = _pool, None
    if held is not None and held[1] == os.getpid():
        held[3].cancel()
        held[2].shutdown(wait=True, cancel_futures=True)


def _run(
    claim: Claim,
    max_u: int,
    max_v: int,
    mode: str,
    workers: Optional[int],
    max_failures: int,
) -> SearchReport:
    if max_u < 1 or max_v < 1:
        raise ValueError("bounds must be at least 1")
    if max_failures < 1:
        raise ValueError("max_failures must be at least 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    if workers is None:
        workers = default_workers()
    # a process pool forks all its workers at once; more than one per CPU
    # only adds processes
    workers = min(workers, os.cpu_count() or 1)
    stop_on_fail = mode == "falsify"
    canonical = mode == "falsify"
    groups = _groups(claim, max_u, max_v, canonical)

    report = SearchReport(claim.id, mode, max_u, max_v, Tally(), workers=workers)

    def merge(done: int, tally: Tally, fails: list, reason: Optional[str]) -> bool:
        report.groups += done
        report.tally.add(tally)
        if reason is not None and report.ill_typed_reason is None:
            report.ill_typed_reason = reason
        if fails:
            space = max_failures - len(report.failures)
            report.failures.extend(fails[:space])
            if report.first_counterexample is None:
                report.first_counterexample, report.witness = fails[0]
            if stop_on_fail:
                return True
        return False

    # the first task runs in this process, merged as a pool task would be:
    # on one worker it is the whole sweep, a falsify that stops inside it
    # never waits on the pool, and a sweep of one task never starts one
    tasks = _tasks(claim, groups) if workers > 1 else iter([groups])
    stopped = merge(*_run_task((claim.id, next(tasks, []), stop_on_fail, max_failures)))
    second = None if stopped else next(tasks, None)
    if second is not None:
        from collections import deque
        from concurrent.futures.process import BrokenProcessPool

        # the rest goes to the pool: a bounded window of in-flight tasks,
        # merged strictly in submission order; on early stop the unstarted
        # tail is cancelled and the running tasks' results are never read
        pool = _get_pool(workers)
        tasks = itertools.chain([second], tasks)
        pending: deque = deque()
        try:
            while True:
                while len(pending) < workers * 2:
                    batch = next(tasks, None)
                    if batch is None:
                        break
                    pending.append(pool.submit(_run_task, (claim.id, batch, stop_on_fail, max_failures)))
                if not pending:
                    break
                if merge(*pending.popleft().result()):
                    for fut in pending:
                        fut.cancel()
                    break
        except BrokenProcessPool:
            _drop_pool()
            raise WorkerCrashError("a search worker process died") from None
        except BaseException:
            _drop_pool()
            raise

    report.elapsed_s = time.perf_counter() - start
    return report


def falsify(claim, max_u: int, max_v: int, workers: Optional[int] = None) -> SearchReport:
    """Scan in canonical order until the first failing instance.

    Maps are enumerated one per codomain-relabeling orbit.  The returned
    first_counterexample (and all tallies) are worker-count independent.
    """
    claim = get_claim(claim)
    return _run(claim, max_u, max_v, "falsify", workers, 1)


def verify(
    claim,
    max_u: int,
    max_v: Optional[int] = None,
    workers: Optional[int] = None,
    max_failures: int = DEFAULT_MAX_FAILURES,
) -> SearchReport:
    """Sweep the entire bounded space, no early stop, all maps (no
    symmetry reduction); failures are collected up to max_failures."""
    claim = get_claim(claim)
    if max_v is None:
        max_v = max_u
    return _run(claim, max_u, max_v, "verify", workers, max_failures)

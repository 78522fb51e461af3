"""Exhaustive counterexample search over bounded universes.

Instances are enumerated in one canonical order: increasing |U|, then |V|,
then the map table, then the partition encodings, then the subset mask.
Within a group a partition is a `claims` handle: up to 7 elements the lex
index of its relation, above that the packed relation itself; only the
failures kept are turned back into rgs.
Each instance is one call of the evaluator named by the claim's registry
record, bound once per run; when `evaluate_raw` here has been rebound
(perfbench/tracing.py counts evaluations that way), the loop calls the
rebound name instead, once per instance as well.
Holds is counted by exception.  Every evaluator returns the one object
`claims._HOLDS` for Holds, so the loop goes on to the next instance when it
sees that object and reads the outcome of any other verdict; only a FAILS
outcome counts as a failure.  Holds is the instances walked less the
failed, ill-typed and vacuous ones, where a group's instances walked is its
closed-form size, or, when falsify stops in it, the failing instance's
position plus one.
`falsify` stops at the first failing instance; `verify` sweeps the whole
space.  Work is sharded by (claim, |U|, |V|, map) groups.  On one worker the
whole sweep is one run in the calling process.  On K > 1, every process
walks the group stream itself, cut into chunks of consecutive groups of about
TASK_INSTANCES instances, and evaluates chunk j when j % K is its index: the
caller is process 0, and K - 1 forked workers, kept for this process and
each on one pipe, are the others.  The caller walks chunk 0 pulling its
groups as it evaluates them, so a falsify that stops there sizes only the
groups it evaluated and a sweep of one chunk starts no worker.  Past chunk
0 it sends each worker one job naming the sweep, evaluates its own chunks,
and after each merges the workers' earlier chunks, read from their pipes.
Results are merged in chunk order, so the first counterexample, the failure
list and every tally are independent of the worker count.  On an early stop
the caller tells the workers to stop; every job ends with a done marker that
the caller reads, so no result of one sweep reaches the next.  The workers
serve one sweep at a time: threads of one process that sweep at once must
each run on one worker.

falsify enumerates one map per codomain-relabeling orbit (relabeling V
commutes with every claim); verify enumerates all maps.  Relabeling V
permutes every table a group's GroupContext builds and changes no verdict,
so verify builds each group's context on its table's canonical form t0,
the first-appearance relabeling that falsify walks (its own tables are
canonical already), and GroupContext builds the tables of each t0 once
(see its docstring).  Witnesses, unlike verdicts, name V's labels, so a kept
failure whose table is not its own t0 takes its witness from the reference
`claims.evaluate`: at most max_failures of them per process.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import deque, namedtuple
from collections.abc import Iterator

from . import claims
from .claims import Claim, GroupContext, Instance, Outcome, evaluate, evaluate_raw, get_claim, size_tables
from .enumeration import bell, canonical_table, iter_canonical_surjections, iter_canonical_tables
# iter_rgs is not called here; perfbench/tracing.py wraps it with the other enumeration streams
from .enumeration import iter_rgs, iter_surjections, iter_tables
from .errors import WorkerCrashError
from .mappings import SurjMap
from .structures import Partition, Subset, Universe

DEFAULT_MAX_FAILURES = 20
# closed-form instances per chunk: a result crosses a pipe per chunk, and
# smaller chunks keep the caller and the workers level at the sweep's end
TASK_INSTANCES = 5_000

# every evaluator returns this one object for Holds
_HOLDS = claims._HOLDS
_FAILS = Outcome.FAILS
_VACUOUS = Outcome.VACUOUS
_ILL_TYPED = Outcome.ILL_TYPED


class RawInstance(namedtuple("RawInstance", "n m table partitions xmask", defaults=(None,))):
    """Picklable instance encoding; labels are attached only at the IO layer.
    The table and each partition's rgs are tuples of ints."""

    __slots__ = ()

    def to_instance(self, u: Universe | None = None, v: Universe | None = None) -> Instance:
        u = u or Universe(self.n)
        v = v or Universe(self.m)
        f = SurjMap(u, v, self.table)
        parts = tuple(Partition(u, rgs) for rgs in self.partitions)
        x = Subset(u, self.xmask) if self.xmask is not None else None
        return Instance(f, parts, x)


class Tally(namedtuple("Tally", "holds fails ill_typed vacuous", defaults=(0, 0, 0, 0))):
    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self)


class SearchReport:
    def __init__(self, claim_id: str, mode: str, max_u: int, max_v: int, tally: Tally, workers: int = 1):
        self.claim_id = claim_id
        self.mode = mode  # falsify | verify
        self.max_u, self.max_v = max_u, max_v
        self.tally = tally
        self.failures: list[tuple[RawInstance, dict]] = []
        self.ill_typed_reason: str | None = None
        self.groups = 0
        self.elapsed_s = 0.0
        self.workers = workers

    @property
    def instances(self) -> int:
        return self.tally.total

    @property
    def found(self) -> bool:
        return self.tally.fails > 0

    # a sweep that finds a failure keeps at least one: max_failures >= 1
    @property
    def first_counterexample(self) -> RawInstance | None:
        return self.failures[0][0] if self.failures else None

    @property
    def witness(self) -> dict | None:
        return self.failures[0][1] if self.failures else None


def _groups(claim: Claim, max_u: int, max_v: int, canonical: bool) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(n, m, table) groups in canonical order; a bijection is a surjection
    onto m = n."""
    if claim.map_constraint == "any":
        stream = iter_canonical_tables if canonical else iter_tables
    else:
        stream = iter_canonical_surjections if canonical else iter_surjections
    for n in range(1, max_u + 1):
        last = max_v if claim.map_constraint == "any" else min(n, max_v)
        for m in range(n if claim.map_constraint == "bijective" else 1, last + 1):
            for table in stream(n, m):
                yield n, m, table


def _run_task(
    claim: Claim, groups: Iterator[tuple[int, int, tuple[int, ...]]], stop_on_fail: bool, max_failures: int
) -> tuple[int, Tally, list[tuple[RawInstance, dict]], str | None]:
    """Evaluate every instance of a run of consecutive (n, m, table) groups
    of one claim, in order: one chunk, or on one worker the whole sweep.

    Returns (groups done, tally, failures capped at max_failures, first
    ill-typed reason); a cap of 0 keeps none and builds no witness.  In
    stop-on-fail mode the run ends at its first failure, and everything
    after it is left uncounted.

    The loop counts every verdict but Holds; holds is what is left of the
    instances walked, each group's closed-form _group_size, cut at the
    failing instance's position in (handles, seconds, xmasks) order when
    the run stops.  The size tables and the group size are looked up once
    per (|U|, |V|), not per group.
    """
    # one call per instance: the claim's evaluator, or, when evaluate_raw
    # here has been rebound (the tracer's count), the rebound name
    if evaluate_raw is claims.evaluate_raw:
        evaluator = claim.evaluator
    else:
        evaluator = functools.partial(evaluate_raw, claim.id)
    walked = vacuous = ill_typed = failed = 0
    fails: list[tuple[RawInstance, dict]] = []
    reason: str | None = None
    done = 0
    shape = None
    for n, m, table in groups:
        if shape != (n, m):
            shape = n, m
            sizes, vsizes = size_tables(n), size_tables(m)
            handles = sizes.handles()
            seconds = handles if claim.partitions == 2 else (None,)
            xmasks = range(1 << n) if claim.needs_subset else (None,)
            size = _group_size(claim, n)
        # falsify walks canonical tables only
        t0 = table if stop_on_fail else canonical_table(table)
        ctx = GroupContext(sizes, vsizes, t0, claim, handles)
        done += 1
        for h1, h2, xmask in itertools.product(handles, seconds, xmasks):
            verdict = evaluator(ctx, h1, h2, xmask)
            if verdict is _HOLDS:
                continue
            outcome = verdict.outcome
            if outcome is _VACUOUS:
                vacuous += 1
            elif outcome is _ILL_TYPED:
                ill_typed += 1
                if reason is None:
                    reason = verdict.reason
            elif outcome is _FAILS:
                failed += 1
                if len(fails) < max_failures:
                    parts = (sizes.rgs(h1),) if h2 is None else (sizes.rgs(h1), sizes.rgs(h2))
                    raw = RawInstance(n, m, table, parts, xmask)
                    # the verdict does not depend on V's labels, the witness does
                    witness = verdict.witness if t0 == table else evaluate(claim, raw.to_instance()).witness
                    fails.append((raw, witness))
                if stop_on_fail:
                    # the group was walked up to and including this instance
                    at = (handles.index(h1) * len(seconds) + seconds.index(h2)) * len(xmasks) + xmasks.index(xmask)
                    walked += at + 1
                    return done, Tally(walked - failed - ill_typed - vacuous, failed, ill_typed, vacuous), fails, reason
        walked += size
    return done, Tally(walked - failed - ill_typed - vacuous, failed, ill_typed, vacuous), fails, reason


def _group_size(claim: Claim, n: int) -> int:
    """Closed-form instance count of one group on n elements."""
    if claim.partitions == 2:
        return bell(n) ** 2
    if claim.needs_subset:
        return bell(n) << n
    return bell(n)


def _take(claim: Claim, groups: Iterator[tuple[int, int, tuple[int, ...]]], budget: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The stream's next groups, pulled as they are walked, up to the one that
    brings their closed-form instance count to budget; sized once per |U|."""
    instances = n = 0
    for group in groups:
        yield group
        if group[0] != n:
            n = group[0]
            size = _group_size(claim, n)
        instances += size
        if instances >= budget:
            return


def _chunks(claim: Claim, groups: Iterator[tuple[int, int, tuple[int, ...]]], budget: int) -> Iterator[Iterator[tuple[int, int, tuple[int, ...]]]]:
    """The stream cut into chunks, each the next _take(claim, groups, budget)
    run; a chunk is walked, or skipped, to its end before the next is drawn."""
    for group in groups:
        yield _take(claim, itertools.chain((group,), groups), budget)


def _serve(conn, callers: list, index: int, workers: int) -> None:
    """Worker index of workers: for each job, (claim id, max_u, max_v,
    stop_on_fail, room, budget), walk the group stream and evaluate the
    chunks j with j % workers == index, sending each chunk's result, then
    None.  callers are the caller's ends of the pipes, inherited by the fork.

    The failures kept over the job's chunks stay within room.  Before each
    chunk it owns the worker looks for the caller's stop, None, which ends
    the job; a stop that arrives after the job has ended is read and
    dropped here.  In stop-on-fail mode a chunk that fails ends the job:
    the caller stops there.
    """
    import signal

    # workers ignore Ctrl-C: the caller stops the sweep and drops them, and
    # idle workers must outlive a Ctrl-C at an interactive prompt
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # with no copy of the caller's end here, the caller's exit reads as EOF
    for end in callers:
        end.close()
    try:
        while True:
            job = conn.recv()
            if job is None:
                continue
            claim_id, max_u, max_v, stop_on_fail, room, budget = job
            claim = get_claim(claim_id)
            # falsify walks the canonical maps
            for j, chunk in enumerate(_chunks(claim, _groups(claim, max_u, max_v, stop_on_fail), budget)):
                if j % workers != index:
                    deque(chunk, 0)
                    continue
                if conn.poll():
                    conn.recv()
                    break
                result = _run_task(claim, chunk, stop_on_fail, room)
                conn.send(result)
                room -= len(result[2])
                if stop_on_fail and result[1].fails:
                    break
            conn.send(None)
    except (EOFError, OSError):
        # the caller closed its end or is gone
        return


# this process's workers as (workers, pid, processes, connections, exit
# hook); a forked child sees its parent's entry under another pid and starts
# its own
_workers: tuple | None = None


def _get_workers(workers: int) -> list:
    """Connections to workers 1 .. workers - 1 of this process, started on
    first use and kept for later sweeps on the same count."""
    global _workers
    if _workers is not None and _workers[:2] == (workers, os.getpid()):
        return _workers[3]
    _drop_workers()
    import multiprocessing
    from multiprocessing.util import Finalize

    # fork, as the pool had on Linux: a worker needs no import of its own,
    # and the search starts no thread that a fork could catch holding a lock
    ctx = multiprocessing.get_context("fork")
    processes: list = []
    conns: list = []
    # stop the workers at exit while the interpreter is whole: from atexit in
    # the main process, and at the end of a multiprocessing child
    hook = Finalize(None, _drop_workers, exitpriority=20)
    _workers = (workers, os.getpid(), processes, conns, hook)
    try:
        for index in range(1, workers):
            conn, end = ctx.Pipe()
            process = ctx.Process(target=_serve, args=(end, [*conns, conn], index, workers))
            process.start()
            # the worker holds the only other copy of its end, so its death
            # reads as EOF here
            end.close()
            processes.append(process)
            conns.append(conn)
    except BaseException:
        _drop_workers()
        raise
    return conns


def _drop_workers() -> None:
    """Stop this process's workers, if it has any."""
    global _workers
    held, _workers = _workers, None
    if held is not None and held[1] == os.getpid():
        held[4].cancel()
        for process in held[2]:
            process.terminate()
        for process in held[2]:
            process.join()
            process.close()
        for conn in held[3]:
            conn.close()


def _run(
    claim: Claim,
    max_u: int,
    max_v: int,
    mode: str,
    workers: int,
    max_failures: int,
) -> SearchReport:
    # bool is an int subclass, so compare the type itself
    for name, value in (("max_u", max_u), ("max_v", max_v), ("workers", workers), ("max_failures", max_failures)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if max_u < 1 or max_v < 1:
        raise ValueError("bounds must be at least 1")
    if max_failures < 1:
        raise ValueError("max_failures must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    # more than one process per CPU only adds processes
    workers = min(workers, os.cpu_count() or 1)
    stop_on_fail = mode == "falsify"
    canonical = mode == "falsify"
    groups = _groups(claim, max_u, max_v, canonical)

    report = SearchReport(claim.id, mode, max_u, max_v, Tally(), workers=workers)

    def merge(done: int, tally: Tally, fails: list, reason: str | None) -> bool:
        report.groups += done
        report.tally = Tally(*map(sum, zip(report.tally, tally)))
        if reason is not None and report.ill_typed_reason is None:
            report.ill_typed_reason = reason
        if fails:
            space = max_failures - len(report.failures)
            report.failures.extend(fails[:space])
            if stop_on_fail:
                return True
        return False

    # on one worker the whole stream is the one chunk; on more, chunk j
    # belongs to process j % workers, this one being 0.  Chunk 0 pulls its
    # groups as it walks them, so a falsify that stops inside it sizes no
    # group it did not evaluate, and a sweep of one chunk starts no worker
    chunks = _chunks(claim, groups, TASK_INSTANCES) if workers > 1 else iter((groups,))
    stopped = merge(*_run_task(claim, next(chunks), stop_on_fail, max_failures))
    second = None if stopped else next(chunks, None)
    if second is not None:
        conns = _get_workers(workers)
        # a worker keeps at most the failures the report has room for now
        job = (claim.id, max_u, max_v, stop_on_fail, max_failures - len(report.failures), TASK_INSTANCES)

        def merged(first: int, end: int) -> bool:
            """Read and merge the workers' chunks first .. end - 1, in order;
            True when the sweep stops in one of them."""
            return any(merge(*conns[j % workers - 1].recv()) for j in range(first, end))

        try:
            for conn in conns:
                conn.send(job)
            for j, chunk in enumerate(itertools.chain((second,), chunks), 1):
                if j % workers:
                    deque(chunk, 0)
                    continue
                own = _run_task(claim, chunk, stop_on_fail, max_failures - len(report.failures))
                stopped = merged(j - workers + 1, j) or merge(*own)
                if stopped:
                    break
            else:
                stopped = merged(j - j % workers + 1, j + 1)
            if stopped:
                for conn in conns:
                    conn.send(None)
            # every job ends with None, so a result the sweep did not read,
            # after a stop, never reaches the next sweep
            for conn in conns:
                while conn.recv() is not None:
                    pass
        except (EOFError, OSError):
            _drop_workers()
            raise WorkerCrashError("a search worker process died") from None
        except BaseException:
            _drop_workers()
            raise

    report.elapsed_s = time.perf_counter() - start
    return report


def falsify(claim, max_u: int, max_v: int, workers: int = 1) -> SearchReport:
    """Scan in canonical order until the first failing instance.

    Maps are enumerated one per codomain-relabeling orbit.  The returned
    first_counterexample (and all tallies) are worker-count independent.
    """
    claim = get_claim(claim)
    return _run(claim, max_u, max_v, "falsify", workers, 1)


def verify(
    claim,
    max_u: int,
    max_v: int | None = None,
    workers: int = 1,
    max_failures: int = DEFAULT_MAX_FAILURES,
) -> SearchReport:
    """Sweep the entire bounded space, no early stop, all maps (no
    symmetry reduction); failures are collected up to max_failures."""
    claim = get_claim(claim)
    if max_v is None:
        max_v = max_u
    return _run(claim, max_u, max_v, "verify", workers, max_failures)

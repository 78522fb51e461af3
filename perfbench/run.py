"""Checked exhaustive-sweep throughput of roughmap, end to end or per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports roughmap from `src/` and reads
the committed evidence in `reports/`.  Workloads are listed in
`workloads.py`.  Each result line names a metric and its unit; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`failed` is check_failures: sweeps, out of the `attempted` sweeps, whose
results differ from the evidence (see `checks.py`).  The exit code is 1 when
any sweep failed its check and 2 when the repository is not found.

--trace 0 (end to end, no wrappers installed): the workload's sweeps run in
passes, each sweep timed on its own and followed by report_doc and its JSON
text; a sweep is started only when half of it fits in --seconds.  Every time
is scaled to the reference host speed by the calibrations run around it (see
`hostspeed.py`), so the drift of a shared host's speed cancels out.
  instances_per_s  instances settled (sum of tally totals) in one pass over
                   the time of that pass, with each sweep taking its median
                   scaled time
  refute_s         seconds of falsify calls until their first
                   counterexample, summed over the workload's claims that
                   have one; each claim's median scaled time, or its first
                   quartile when the calls run on a process pool
  setup_s          fresh interpreter (without site-packages processing)
                   until `import roughmap` is done and a kernel backend is
                   selected; median scaled time of spawns spread over the run
  peak_rss_mb      peak RSS of this process, which builds whatever the
                   sweeps build before pool workers are forked from it

--trace 1 (per layer): one untraced pass on 1 worker, one on 2 workers with
pool waits timed, then one pass on 1 worker with spans around every layer
(see `tracing.py`).  --seconds does not apply.  Count metrics must repeat
exactly: they are checked against the engine's own tallies and against the
previous traced run of the same source, backend and workload sweeps.

Every result, with the kernel backend, Python version, commit, source digest,
nproc and worker count, is written to perfbench/out/.  Results taken on
different backends are not comparable.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

# roughmap, and the modules here that use it, are imported only after
# main() has put the checkout's SRC first on the path
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_SPAWNS = 9
SETUP_CODE = "import roughmap; roughmap.kernels.select(6, 4)"
REFUTE_SHARE = 0.15  # share of --seconds spent timing refute_s
KERNEL_FNS = (
    "relmap_classified", "meet_rgs", "join_rgs", "refines_rgs",
    "fiber_condition", "lower_upper_masks", "image_mask",
)
TABLE_FNS = ("iter_surjections", "iter_canonical_surjections", "iter_tables", "iter_canonical_tables")


@dataclass
class SweepResult:
    sweep: object
    report: object
    text: str  # the report document as written JSON
    engine_s: float  # wall time of the verify/falsify call alone


def run_sweep(tracer, sweep, workers: int) -> SweepResult:
    from roughmap import docio, search

    engine = search.verify if sweep.mode == "verify" else search.falsify
    t0 = perf_counter()
    report = tracer.call(
        "search." + sweep.mode, engine, sweep.claim, sweep.max_u, sweep.max_v, workers=workers
    )
    engine_s = perf_counter() - t0
    doc = tracer.call("docio.report_doc", docio.report_doc, report)
    text = tracer.call("docio.report_json", json.dumps, doc, indent=2, ensure_ascii=False)
    return SweepResult(sweep, report, text, engine_s)


def run_pass(tracer, sweeps, workers: int) -> tuple[list[SweepResult], float]:
    results = []
    t0 = perf_counter()
    for sweep in sweeps:
        results.append(run_sweep(tracer, sweep, workers))
    return results, perf_counter() - t0


class Bench:
    def __init__(self, workload, seed: int):
        from checks import load_evidence

        self.workload = workload
        self.rng = random.Random(seed)
        sweeps = workload.sweeps + (workload.refute or ())
        self.evidence = load_evidence(sweeps, os.path.join(ROOT, "reports"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def order(self, sweeps):
        return self.rng.sample(sweeps, len(sweeps))

    def check(self, results, parse=None) -> None:
        from checks import check_sweep

        for r in results:
            problems = check_sweep(r.sweep, r.report, r.text, self.evidence, parse)
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems

    def measured(self, seconds: float) -> tuple[dict, dict]:
        from hostspeed import HostClock
        from tracing import Untraced

        w = self.workload
        setups = 0
        refute_spent = 0.0
        last_s: dict[str, float] = {}  # latest wall time of each sweep
        instances: dict[str, int] = {}

        def timed_sweep(sweep, refute: bool) -> SweepResult:
            t0 = perf_counter()
            r = run_sweep(Untraced, sweep, w.workers)
            wall = perf_counter() - t0
            self.check([r])
            if not refute:
                clock.record("sweep", sweep.name, t0, wall)
                last_s[sweep.name] = wall
            if r.report.found and (refute or w.refute is None):
                clock.record("refute", sweep.name, t0, r.engine_s)
            return r

        def between(elapsed: float) -> None:
            # set-up spawns and refute repetitions run between the sweeps,
            # so that their samples are spread over the run like the sweeps
            nonlocal setups, refute_spent
            while setups < SETUP_SPAWNS * min(1.0, elapsed / seconds):
                clock.record("setup", "setup", *time_setup())
                setups += 1
            reps = 0
            while w.refute and (reps < 1 or refute_spent < REFUTE_SHARE * (perf_counter() - start)):
                t0 = perf_counter()
                for sweep in self.order(w.refute):
                    timed_sweep(sweep, refute=True)
                refute_spent += perf_counter() - t0
                reps += 1

        time_setup()  # leaves bytecode caches written
        clock = HostClock()
        start = perf_counter()
        passes = 0
        while True:
            for sweep in self.order(w.sweeps):
                # after the first pass, start a sweep only when half of it fits
                if passes and perf_counter() - start + last_s[sweep.name] / 2 > seconds:
                    break
                instances[sweep.name] = timed_sweep(sweep, refute=False).report.instances
                between(perf_counter() - start)
            else:
                passes += 1
                continue
            break
        while setups < SETUP_SPAWNS:
            clock.record("setup", "setup", *time_setup())
            setups += 1

        sweep_s = clock.scaled("sweep")
        refute_s = clock.scaled("refute")
        setup_s = clock.scaled("setup")["setup"]
        # a pass: each sweep taking its median time
        pass_s = sum(statistics.median(v) for v in sweep_s.values())
        if w.workers > 1:
            # a falsify call on a pool waits for the pool to start and for
            # its slowest worker, so a shared host gives its times a long
            # tail; their first quartile is steadier than their median
            refute = sum(statistics.quantiles(v, n=4)[0] for v in refute_s.values())
        else:
            refute = sum(statistics.median(v) for v in refute_s.values())
        metrics = {
            "instances_per_s": (sum(instances.values()) / pass_s, "1/s"),
            "refute_s": (refute, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
        samples = {
            "passes": passes,
            "calibrations": clock.calibrations,  # start, seconds
            "events": clock.events,  # kind, name, start, raw seconds
            "scaled": {"sweep_s": sweep_s, "refute_s": refute_s, "setup_s": setup_s},
        }
        return metrics, samples

    def traced(self) -> tuple[dict, dict]:
        from roughmap import docio
        from tracing import Tracer, Untraced, installed, pool_wait_timed

        order = self.order(self.workload.sweeps)
        results, wall_1 = run_pass(Untraced, order, 1)
        self.check(results)
        pool = Tracer()
        with pool_wait_timed(pool):
            results, wall_2 = run_pass(Untraced, order, 2)
        self.check(results)
        tr = Tracer()
        with installed(tr):
            results, wall_t = run_pass(tr, order, 1)
        self.check(results, parse=tr.timed("docio.parse_instance_doc", docio.parse_instance_doc))

        lookups = tr.counters["claims.relmap_lookups"]
        relmap_calls = tr.calls["kernels.relmap_classified"]
        m = {
            "enumeration.rgs_yielded": (tr.counters["enumeration.iter_rgs.yielded"], "count"),
            "enumeration.tables_yielded": (
                sum(tr.counters[f"enumeration.{fn}.yielded"] for fn in TABLE_FNS), "count"
            ),
            "enumeration.self_s": (tr.layer_self_s("enumeration"), "s"),
        }
        for fn in KERNEL_FNS:
            m[f"kernels.{fn}.calls"] = (tr.calls["kernels." + fn], "count")
            m[f"kernels.{fn}.self_s"] = (tr.self_s["kernels." + fn], "s")
        m.update({
            "kernels.self_s": (tr.layer_self_s("kernels"), "s"),
            "claims.evaluations": (tr.calls["claims.evaluate_raw"], "count"),
            "claims.contexts": (tr.calls["claims.GroupContext"], "count"),
            "claims.self_s": (tr.layer_self_s("claims"), "s"),
            "claims.relmap_cache_hit_ratio": (1 - relmap_calls / lookups if lookups else 0.0, "ratio"),
            "search.groups": (sum(r.report.groups for r in results), "count"),
            "search.self_s": (tr.layer_self_s("search"), "s"),
            "search.pool_wait_s": (pool.total_s["search.pool_wait"], "s"),
            "search.pool_speedup": (wall_1 / wall_2, "ratio"),
            "docio.reports": (tr.calls["docio.report_doc"], "count"),
            "docio.report_s": (tr.total_s["docio.report_doc"] + tr.total_s["docio.report_json"], "s"),
            "docio.report_bytes": (sum(len(r.text.encode()) for r in results), "bytes"),
            "docio.parse_s": (tr.total_s["docio.parse_instance_doc"], "s"),
            "trace.overhead_s": (wall_t - wall_1, "s"),
        })
        self.check_counts(m, results)
        samples = {
            "pass_1_worker_s": wall_1,
            "pass_2_workers_s": wall_2,
            "pass_traced_s": wall_t,
            "spans": tr.spans,
            "by_name": {
                name: {"calls": tr.calls[name], "total_s": tr.total_s[name], "self_s": tr.self_s[name]}
                for name in sorted(tr.calls)
            },
            "counters": dict(tr.counters),
        }
        return m, samples

    def check_counts(self, metrics: dict, results) -> None:
        """Counts must agree with the engine's tallies and repeat across runs.

        A disagreement counts as one more failed check."""
        from roughmap import kernels

        problems = len(self.problems)
        counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
        instances = sum(r.report.instances for r in results)
        if counts["claims.evaluations"] != instances:
            self.problems.append(f"trace: {counts['claims.evaluations']} evaluations for {instances} instances")
        if counts["claims.contexts"] != counts["search.groups"]:
            self.problems.append(f"trace: {counts['claims.contexts']} contexts for {counts['search.groups']} groups")
        sweeps = hashlib.sha256(repr(self.workload.sweeps).encode()).hexdigest()[:8]
        path = os.path.join(
            OUT_DIR, f"counts-{self.workload.name}-{sweeps}-{kernels.BACKEND}-{source_digest()}.json"
        )
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                before = json.load(fh)
            changed = sorted(k for k in counts.keys() | before.keys() if counts.get(k) != before.get(k))
            if changed:
                self.problems.append(f"trace: counts differ from the previous traced run: {', '.join(changed)}")
        else:
            write_json(path, counts)
        self.attempted += 1
        self.failed += len(self.problems) > problems


def peak_rss_mb() -> float:
    # children are left out: on Linux a child's ru_maxrss starts from this
    # process's high-water mark, and the set-up spawns would mix into it
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def time_setup() -> tuple[float, float]:
    """Start and seconds from spawning an interpreter until roughmap is imported and a backend selected."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # -S skips site-packages processing: it is the environment's start-up
    # cost, not roughmap's, and roughmap imports only the standard library
    cmd = [sys.executable, "-S", "-c", SETUP_CODE]
    t0 = perf_counter()
    subprocess.run(cmd, env=env, check=True)
    return t0, perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "roughmap", "*.py*"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:12]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workers: int) -> dict:
    from roughmap import kernels

    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "workers": workers,
    }


def write_json(path: str, doc: dict) -> None:
    from roughmap import docio

    os.makedirs(os.path.dirname(path), exist_ok=True)
    docio.write_json(path, doc)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="orders the sweeps within each pass")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "roughmap", "__init__.py")):
        print(f"perfbench: {SRC}/roughmap not found; run from the repository root", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "reports")):
        print(f"perfbench: {ROOT}/reports not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    metrics, samples = bench.traced() if args.trace else bench.measured(args.seconds)
    env = environment(workload.workers)
    failed = bench.failed
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(f"workload {workload.name}: {workload.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in bench.problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<36} {shown} {unit}")
    if "calibrations" in samples:
        from hostspeed import REFERENCE_S

        calibration = statistics.median(c[1] for c in samples["calibrations"])
        print(f"{'calibration (times scaled by)':<36} {calibration:>16.6f} s, reference {REFERENCE_S} s")
    print(f"{'check_failures':<36} {failed:>16} sweeps (of {bench.attempted} checked)")

    write_json(
        os.path.join(OUT_DIR, f"{workload.name}-trace{args.trace}-seed{args.seed}.json"),
        {
            "workload": workload.name,
            "seed": args.seed,
            "env": env,
            "metrics": values,
            "check_failures": failed,
            "attempted": bench.attempted,
            "problems": bench.problems,
            "samples": samples,
        },
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

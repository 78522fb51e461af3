"""Correctness gate: every sweep the benchmark runs is checked here.

A sweep passes when
- its report document equals the committed `reports/<sweep>.json`, or the
  pinned values in `workloads.PINS` where no report is committed (timing,
  worker count and tool version are ignored);
- its instance and group counts equal the closed forms built from
  `enumeration.bell`, `surjection_count` and `subset_count` (an early-stopped
  falsify must stay below them);
- its first counterexample, read back through `docio.parse_instance_doc`
  and the reference `claims.evaluate`, fails again with the same witness.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import factorial

from roughmap import docio
from roughmap.claims import Outcome, evaluate, get_claim
from roughmap.enumeration import (
    bell,
    canonical_table_count,
    stirling2,
    subset_count,
    surjection_count,
    table_count,
)

from workloads import PINS

IGNORED_FIELDS = ("wall_time_s", "workers", "tool")


def normalized(doc_text: str) -> dict:
    """A written report document without the fields that vary run to run."""
    doc = json.loads(doc_text)
    for key in IGNORED_FIELDS:
        doc.pop(key, None)
    return doc


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_evidence(sweeps, reports_dir: str = "reports") -> dict:
    """Committed report documents by sweep name, for the sweeps that have one."""
    out = {}
    for sweep in sweeps:
        path = os.path.join(reports_dir, sweep.name + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[sweep.name] = normalized(fh.read())
        elif sweep.name not in PINS:
            raise FileNotFoundError(f"no evidence for {sweep.name}: {path} is missing and nothing is pinned")
    return out


def space_size(sweep) -> tuple[int, int]:
    """(instances, groups) of the full space the sweep walks."""
    claim = get_claim(sweep.claim)
    canonical = sweep.mode == "falsify"
    instances = groups = 0
    for n in range(1, sweep.max_u + 1):
        if claim.partitions == 2:
            per_map = bell(n) ** 2
        elif claim.needs_subset:
            per_map = bell(n) * subset_count(n)
        else:
            per_map = bell(n)
        if claim.map_constraint == "bijective":
            maps = (1 if canonical else factorial(n)) if n <= sweep.max_v else 0
        elif claim.map_constraint == "surjective":
            maps = sum(
                stirling2(n, m) if canonical else surjection_count(n, m)
                for m in range(1, min(n, sweep.max_v) + 1)
            )
        else:
            maps = sum(
                canonical_table_count(n, m) if canonical else table_count(n, m)
                for m in range(1, sweep.max_v + 1)
            )
        groups += maps
        instances += maps * per_map
    return instances, groups


def _raw_tuple(raw):
    if raw is None:
        return None
    return (raw.n, raw.m, raw.table, raw.partitions, raw.xmask)


def check_sweep(sweep, report, doc_text: str, evidence: dict, parse=None) -> list[str]:
    """Problems found with one sweep's result; empty when it is correct.

    `parse` stands in for `docio.parse_instance_doc`, so a traced run can time it.
    """
    parse = parse or docio.parse_instance_doc
    problems = []
    doc = normalized(doc_text)
    expected = evidence.get(sweep.name)
    if expected is not None:
        keys = sorted(k for k in doc.keys() | expected.keys() if doc.get(k) != expected.get(k))
        if keys:
            problems.append(f"differs from reports/{sweep.name}.json in {', '.join(keys)}")
    else:
        pin = PINS[sweep.name]
        t = report.tally
        got = {
            "tallies": (t.holds, t.fails, t.ill_typed, t.vacuous),
            "groups": report.groups,
            "first": _raw_tuple(report.first_counterexample),
            "digest": digest(doc),
        }
        for key, value in got.items():
            if value != getattr(pin, key):
                problems.append(f"{key} {value!r} != pinned {getattr(pin, key)!r}")

    want_instances, want_groups = space_size(sweep)
    if sweep.mode == "verify" or not report.found:
        if (report.instances, report.groups) != (want_instances, want_groups):
            problems.append(
                f"covered {report.instances} instances in {report.groups} groups, "
                f"closed form is {want_instances} in {want_groups}"
            )
    elif report.instances > want_instances or report.groups > want_groups:
        problems.append(f"early stop covered {report.instances} instances, more than the space")

    if report.first_counterexample is not None:
        parsed = parse(doc["first_counterexample"])
        verdict = evaluate(parsed.claim_id, parsed.instance)
        if verdict.outcome is not Outcome.FAILS or verdict.witness != report.witness:
            problems.append("first counterexample does not fail again with the same witness")
    return [f"{sweep.name}: {p}" for p in problems]

"""Bit-exact replay of the two bundled worked instances.

The expected values below are frozen literals; the replay recomputes every
displayed object from scratch and compares.  Instance "monotonicity" shows
the image map breaking the refinement order (and the intersection and
union rules with it); instance "approximation" shows both approximation
inclusions failing even for definable X.  A bijective spot check confirms
the positive statements T42-1 and T42-2 on one instance.
"""

from __future__ import annotations

from collections import namedtuple

from .approx import approximations
from .claims import Instance, evaluate
from .docio import render_relation as _render_relation
from .docio import render_subset as _render_subset
from .mappings import SurjMap, relmap
from .structures import Partition, Subset, Universe


class ReplayCheck(namedtuple("ReplayCheck", "instance name expected actual")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class ReplayReport(namedtuple("ReplayReport", "checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def monotonicity_instance() -> Instance:
    """Six elements onto two; R1 refines R2 yet f(R1) is the larger image."""
    u = Universe(6, ["1", "2", "3", "4", "5", "6"])
    v = Universe(2, ["a", "b"])
    f = SurjMap(u, v, (0, 0, 1, 1, 0, 0))
    r1 = Partition.from_blocks(u, [[0], [1], [2], [3, 4, 5]])
    r2 = Partition.from_blocks(u, [[2], [0, 1, 3, 4, 5]])
    return Instance(f, (r1, r2))


def approximation_instance() -> Instance:
    """Four elements onto two; X definable yet both approximations break."""
    u = Universe(4, ["1", "2", "3", "4"])
    v = Universe(2, ["a", "b"])
    f = SurjMap(u, v, (0, 0, 1, 1))
    r = Partition.from_blocks(u, [[0], [1, 2], [3]])
    x = Subset.from_elements(u, [0])
    return Instance(f, (r,), x)


def bijective_instance() -> Instance:
    """Same four-element universe under a bijection; the equalities hold."""
    u = Universe(4, ["1", "2", "3", "4"])
    v = Universe(4, ["p", "q", "r", "s"])
    f = SurjMap(u, v, (0, 1, 2, 3))
    r = Partition.from_blocks(u, [[0], [1, 2], [3]])
    x = Subset.from_elements(u, [0])
    return Instance(f, (r,), x)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _monotonicity_checks() -> list[ReplayCheck]:
    tag = "monotonicity"
    inst = monotonicity_instance()
    f = inst.f
    r1, r2 = inst.partitions
    fr1 = relmap(f, r1)
    fr2 = relmap(f, r2)
    meet = r1.meet(r2)
    f_meet = relmap(f, meet)
    inter = fr1 & fr2
    union = r1.raw_union(r2)
    union_is_eq = union.classify().equivalence
    checks = [
        ReplayCheck(tag, "f(R1)", "{(a, a), (b, b), (a, b), (b, a)}", _render_relation(fr1)),
        ReplayCheck(tag, "f(R2)", "{(a, a), (b, b)}", _render_relation(fr2)),
        ReplayCheck(tag, "R1 ⊆ R2", "true", _bool(r1.refines(r2))),
        ReplayCheck(tag, "f(R1) ⊆ f(R2)", "false", _bool(fr1 <= fr2)),
        ReplayCheck(tag, "f(R2) ⊆ f(R1)", "true", _bool(fr2 <= fr1)),
        ReplayCheck(tag, "f(R1 ∩ R2) = f(R1)", "true", _bool(f_meet == fr1)),
        ReplayCheck(
            tag,
            "f(R1 ∩ R2) ⫆ f(R1) ∩ f(R2)",
            "true",
            _bool(inter <= f_meet and f_meet != inter),
        ),
        ReplayCheck(tag, "R1 ∪ R2 is an equivalence", "true", _bool(union_is_eq)),
        ReplayCheck(tag, "R1 ∪ R2 = R2", "true", _bool(union == r2.to_relation())),
    ]
    if union_is_eq:
        f_union = relmap(f, union.to_partition())
        checks.append(
            ReplayCheck(
                tag,
                "f(R1 ∪ R2) ⊇ f(R1) ∪ f(R2)",
                "false",
                _bool((fr1 | fr2) <= f_union),
            )
        )
    return checks


def _approximation_checks() -> list[ReplayCheck]:
    tag = "approximation"
    inst = approximation_instance()
    f = inst.f
    (r,) = inst.partitions
    x = inst.x
    lo_u, hi_u = approximations(r, x)
    fx = f.image_subset(x)
    fr = relmap(f, r)
    checks = [
        ReplayCheck(tag, "apr_R X", "{1}", _render_subset(lo_u)),
        ReplayCheck(tag, "apr̄_R X", "{1}", _render_subset(hi_u)),
        ReplayCheck(tag, "f(X)", "{a}", _render_subset(fx)),
        ReplayCheck(tag, "f(R)", "{(a, a), (b, b), (a, b), (b, a)}", _render_relation(fr)),
    ]
    if fr.classify().equivalence:
        fr_part = fr.to_partition()
        lo_v, hi_v = approximations(fr_part, fx)
        checks.append(ReplayCheck(tag, "apr_f(R) f(X)", "∅", _render_subset(lo_v)))
        checks.append(ReplayCheck(tag, "apr̄_f(R) f(X)", "{a, b}", _render_subset(hi_v)))
    else:
        checks.append(ReplayCheck(tag, "f(R) is an equivalence", "true", "false"))
    for cid in ("T41-1", "T41-2", "T43-1", "T43-2"):
        verdict = evaluate(cid, inst)
        checks.append(ReplayCheck(tag, f"{cid} verdict", "fails", verdict.outcome.value))
    return checks


def _bijective_checks() -> list[ReplayCheck]:
    tag = "bijective spot check"
    inst = bijective_instance()
    checks = []
    for cid in ("T42-1", "T42-2"):
        verdict = evaluate(cid, inst)
        checks.append(ReplayCheck(tag, f"{cid} verdict", "holds", verdict.outcome.value))
    return checks


def replay_examples() -> ReplayReport:
    """Recompute both bundled instances and compare against frozen values."""
    checks = _monotonicity_checks() + _approximation_checks() + _bijective_checks()
    return ReplayReport(checks)

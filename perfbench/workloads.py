"""The benchmark's workloads and the evidence each sweep is checked against.

Every workload is a fixed list of exhaustive sweeps, so its instance space
does not depend on the seed; the seed only shuffles the order of the sweeps
in each pass, and results must not depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

REGISTRY_IDS = (
    "T31", "T31-refl", "L31-1-fwd", "L31-1-bwd", "L31-2-inc", "L31-2-eq",
    "L31-3-inc", "L31-3-eq", "L31-3-join", "L32", "T41-1", "T41-2",
    "T42-1", "T42-2", "T43-1", "T43-2",
)


@dataclass(frozen=True)
class Sweep:
    claim: str
    mode: str  # verify | falsify
    max_u: int
    max_v: int

    @property
    def name(self) -> str:
        return f"{self.claim.lower()}-{self.mode}-{self.max_u}-{self.max_v}"


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    sweeps: tuple[Sweep, ...]
    # falsify sweeps timed for refute_s; None means the pass itself is
    # made of falsify sweeps and refute_s is read from it
    refute: Optional[tuple[Sweep, ...]]
    why: str


def _verify(claims, u, v):
    return tuple(Sweep(c, "verify", u, v) for c in claims)


def _falsify(claims, u, v):
    return tuple(Sweep(c, "falsify", u, v) for c in claims)


_APPROX_REFUTED = ("T41-1", "T41-2", "T43-1", "T43-2")

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "t31-verify", 1,
            _verify(["T31"], 6, 3),
            _falsify(["T31"], 6, 4),
            "one partition per instance and one uncached relmap call each",
        ),
        Workload(
            "lattice-verify", 1,
            _verify(["L31-2-inc", "L31-3-join"], 5, 2),
            _falsify(["L31-2-inc", "L31-3-join"], 5, 3),
            "two partitions per instance: meet/join per pair, relmap cached",
        ),
        Workload(
            "approx-verify", 1,
            _verify(_APPROX_REFUTED, 5, 3) + _verify(["T42-1", "T42-2"], 5, 5),
            _falsify(_APPROX_REFUTED, 5, 3),
            "partition plus subset: approximations and images, little relmap",
        ),
        Workload(
            "registry-falsify", 2,
            _falsify(REGISTRY_IDS, 5, 3),
            None,
            "all claims with early stop on a 2-process pool, plus report IO",
        ),
    ]
}


@dataclass(frozen=True)
class Pin:
    """Expected result of a sweep that has no committed report.

    `first` is the first counterexample as (n, m, table, partitions, xmask);
    `digest` covers the whole report document except its timing and tool
    fields, so it pins the witness and the failure list too.
    """

    tallies: tuple[int, int, int, int]  # holds, fails, ill_typed, vacuous
    groups: int
    first: Optional[tuple]
    digest: str


PINS = {
    "t31-falsify-6-4": Pin((12527, 1, 0, 0), 122, (6, 3, (0, 0, 1, 1, 2, 2), ((0, 1, 0, 2, 1, 3),), None), "3db20d54bd924897"),
    "t31-verify-6-3": Pin((130498, 2160, 0, 0), 852, (6, 3, (0, 0, 1, 1, 2, 2), ((0, 1, 0, 2, 1, 3),), None), "3db4fce946aba36c"),
    "l31-2-inc-verify-5-2": Pin((87147, 240, 0, 0), 57, (4, 2, (0, 0, 1, 1), ((0, 0, 0, 1), (0, 1, 0, 0)), None), "40a218f8ad205572"),
    "l31-3-join-verify-5-2": Pin((87147, 240, 0, 0), 57, (4, 2, (0, 0, 1, 1), ((0, 0, 0, 1), (0, 1, 0, 2)), None), "309e5ee9cb60895b"),
    "t41-1-verify-5-3": Pin((303794, 10176, 0, 0), 249, (4, 2, (0, 0, 1, 1), ((0, 1, 0, 2),), 2), "63aee417c108eb95"),
    "t41-2-verify-5-3": Pin((309602, 4368, 0, 0), 249, (4, 2, (0, 0, 1, 1), ((0, 1, 0, 2),), 2), "40a977ae1876d61c"),
    "t43-1-verify-5-3": Pin((83626, 3648, 0, 226696), 249, (4, 2, (0, 0, 1, 1), ((0, 1, 0, 2),), 2), "e192f6baf2cde3e4"),
    "t43-2-verify-5-3": Pin((83626, 3648, 0, 226696), 249, (4, 2, (0, 0, 1, 1), ((0, 1, 0, 2),), 2), "ccc676bc3d027e8a"),
    "t31-falsify-5-3": Pin((2372, 0, 0, 0), 63, None, "c9ea65e2532fe69f"),
    "t31-refl-falsify-5-3": Pin((3424, 0, 0, 0), 99, None, "e9717577f3a27554"),
    "l32-falsify-5-3": Pin((0, 0, 114148, 0), 63, None, "36e3b5e6261c4122"),
    "t42-1-falsify-5-3": Pin((50, 0, 0, 0), 3, None, "4d6f5c2a663633b2"),
    "t42-2-falsify-5-3": Pin((50, 0, 0, 0), 3, None, "d8a9851747a64948"),
}

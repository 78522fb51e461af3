"""Lower and upper approximations of a subset with respect to a partition.

The lower approximation is the union of blocks wholly inside the subset,
the upper the union of blocks meeting it.  Both are deliberately defined
for partitions only; a relation must be converted (and hence checked to
be an equivalence) before it can approximate anything.
"""

from __future__ import annotations

from . import kernels
from .errors import MixedUniverseError
from .structures import Partition, Subset


def _lower_upper(p: Partition, x: Subset) -> tuple[int, int]:
    if p.universe is not x.universe:
        raise MixedUniverseError("subset and partition live on different universes")
    masks = tuple(b.mask for b in p.blocks())
    return kernels.lower_upper_masks(masks, x.mask)


def lower_approx(p: Partition, x: Subset) -> Subset:
    lo, _ = _lower_upper(p, x)
    return Subset(x.universe, lo)


def upper_approx(p: Partition, x: Subset) -> Subset:
    _, hi = _lower_upper(p, x)
    return Subset(x.universe, hi)


def approximations(p: Partition, x: Subset) -> tuple[Subset, Subset]:
    """(lower, upper) in one pass."""
    lo, hi = _lower_upper(p, x)
    return Subset(x.universe, lo), Subset(x.universe, hi)


def is_definable(p: Partition, x: Subset) -> bool:
    """True when x is a union of blocks, i.e. both approximations equal x."""
    lo, hi = _lower_upper(p, x)
    return lo == x.mask and hi == x.mask


def boundary(p: Partition, x: Subset) -> Subset:
    lo, hi = _lower_upper(p, x)
    return Subset(x.universe, hi & ~lo)

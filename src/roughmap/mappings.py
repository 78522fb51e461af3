"""Maps between universes, inclusion degrees, and induced relation images.

The inclusion degree of F in E is |E & F| / |E|, kept as an exact integer
pair.  The induced image of an equivalence keeps a pair (f(x), f(y)) only
when x's fiber meets x's class to exactly the same degree as y's fiber
meets y's class; that exactness is why no floats appear anywhere here.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

from . import kernels
from .errors import BadImageError, EmptyReferenceError, MixedUniverseError
from .structures import BinRelation, Partition, Subset, Universe


class DegreeRatio:
    """Exact ratio num/den with den > 0; never reduced, compared by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den <= 0:
            raise EmptyReferenceError("degree denominator must be positive")
        if num < 0 or num > den:
            raise EmptyReferenceError(f"degree {num}/{den} outside [0, 1]")
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, DegreeRatio):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: "DegreeRatio") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "DegreeRatio") -> bool:
        return self.num * other.den <= other.num * self.den

    def __hash__(self):
        # hash the reduced form so equal ratios collide
        g = gcd(self.num, self.den)
        return hash((self.num // g, self.den // g))

    def __float__(self) -> float:
        return self.num / self.den

    def __repr__(self):
        return f"{self.num}/{self.den}"

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    @property
    def is_zero(self) -> bool:
        return self.num == 0


def including_degree(e: Subset, f: Subset) -> DegreeRatio:
    """Degree to which e is included in f; e must be nonempty."""
    if e.universe is not f.universe:
        raise MixedUniverseError("degree needs subsets of one universe")
    if e.mask == 0:
        raise EmptyReferenceError("inclusion degree undefined for an empty reference set")
    return DegreeRatio((e.mask & f.mask).bit_count(), e.mask.bit_count())


class SurjMap:
    """Total map between universes given by an image table.

    Fibers are precomputed; the surjective flag just records whether they
    are all nonempty, construction never requires it.
    """

    __slots__ = ("domain", "codomain", "table", "fibers", "surjective")

    def __init__(self, domain: Universe, codomain: Universe, table: Sequence[int]):
        table = tuple(table)
        if len(table) != domain.size:
            raise BadImageError("image table length differs from domain size")
        for v in table:
            if not 0 <= v < codomain.size:
                raise BadImageError(f"image {v} outside codomain of size {codomain.size}")
        self.domain = domain
        self.codomain = codomain
        self.table = table
        self.fibers = kernels.fiber_masks(table, codomain.size)
        self.surjective = all(m != 0 for m in self.fibers)

    @classmethod
    def from_pairs(
        cls, domain: Universe, codomain: Universe, pairs: Iterable[tuple[int, int]]
    ) -> "SurjMap":
        table: list[Optional[int]] = [None] * domain.size
        for x, y in pairs:
            domain.check_element(x)
            codomain.check_element(y)
            if table[x] is not None and table[x] != y:
                raise BadImageError(f"element {domain.label(x)} mapped twice")
            table[x] = y
        if None in table:
            x = table.index(None)
            raise BadImageError(f"element {domain.label(x)} has no image")
        return cls(domain, codomain, table)  # type: ignore[arg-type]

    def __call__(self, x: int) -> int:
        self.domain.check_element(x)
        return self.table[x]

    def fiber(self, y: int) -> Subset:
        """Preimage of a single codomain element."""
        self.codomain.check_element(y)
        return Subset(self.domain, self.fibers[y])

    def fiber_of(self, x: int) -> Subset:
        """All domain elements sharing x's image."""
        self.domain.check_element(x)
        return Subset(self.domain, self.fibers[self.table[x]])

    @property
    def bijective(self) -> bool:
        return self.domain.size == self.codomain.size and self.surjective

    def image_subset(self, x: Subset) -> Subset:
        if x.universe is not self.domain:
            raise MixedUniverseError("subset not over the map's domain")
        return Subset(self.codomain, kernels.image_mask(self.table, x.mask))

    def __eq__(self, other):
        return (
            isinstance(other, SurjMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.table == other.table
        )

    def __hash__(self):
        return hash((id(self.domain), id(self.codomain), self.table))

    def __repr__(self):
        body = ", ".join(
            f"{self.domain.label(x)}->{self.codomain.label(y)}"
            for x, y in enumerate(self.table)
        )
        return f"SurjMap({body})"


def make_map(domain: Universe, codomain: Universe, table: Sequence[int]) -> SurjMap:
    """Total map from an image list; surjectivity is recorded, not required."""
    return SurjMap(domain, codomain, table)


def relmap(f: SurjMap, p: Partition) -> BinRelation:
    """Image relation of an equivalence under f.

    (f(x), f(y)) is kept iff x and y are equivalent and the degree of x's
    class within x's fiber equals the degree of y's class within y's fiber:
    the OR of every block's `kernels.contribution`.
    """
    if p.universe is not f.domain:
        raise MixedUniverseError("partition not over the map's domain")
    sizes = [fiber.bit_count() for fiber in f.fibers]
    packed = 0
    for block in kernels.block_masks(p.rgs):
        packed |= kernels.contribution(sizes, kernels.fiber_counts(f.fibers, block))
    return BinRelation(f.codomain, kernels.unpack_rows(packed, f.codomain.size))


def degree_table(f: SurjMap, p: Partition) -> tuple[DegreeRatio, ...]:
    """Per-domain-element degree of its class inside its fiber."""
    if p.universe is not f.domain:
        raise MixedUniverseError("partition not over the map's domain")
    return tuple(including_degree(f.fiber_of(x), p.block_of(x)) for x in range(f.domain.size))


def fiber_condition(f: SurjMap, p: Partition) -> bool:
    """True when every fiber sits inside the class of its elements."""
    if p.universe is not f.domain:
        raise MixedUniverseError("partition not over the map's domain")
    return kernels.fiber_condition(p.rgs, f.table, f.fibers)

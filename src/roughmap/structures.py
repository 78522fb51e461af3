"""Finite universes, subsets, binary relations, and partitions.

Elements are dense indices 0..size-1; optional display labels live on the
Universe and are only touched by the IO layer.  All values are immutable
after construction and compare by universe identity plus payload.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from . import kernels
from .errors import (
    BadElementError,
    BadLabelsError,
    EmptyUniverseError,
    MixedUniverseError,
    NotAPartitionError,
    NotEquivalenceError,
)


class Universe:
    """A finite, nonempty ground set; identity-compared."""

    __slots__ = ("size", "labels")

    def __init__(self, size: int, labels: Optional[Sequence[str]] = None):
        if size < 1:
            raise EmptyUniverseError("universe must have at least one element")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise BadLabelsError(
                    f"{len(labels)} labels for {size} elements"
                )
            if len(set(labels)) != size:
                raise BadLabelsError("labels must be distinct")
        self.size = size
        self.labels = labels

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def label(self, i: int) -> str:
        # unlabeled universes print 1-based, matching the U = {1, ..., n} convention
        return self.labels[i] if self.labels else str(i + 1)

    def check_element(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise BadElementError(f"element {i} outside universe of size {self.size}")

    def __repr__(self):
        if self.labels:
            return f"Universe({{{', '.join(self.labels)}}})"
        return f"Universe(size={self.size})"


def make_universe(size: int, labels: Optional[Sequence[str]] = None) -> Universe:
    """Universe with elements 0..size-1 and optional distinct labels."""
    return Universe(size, labels)


def _check_same(u: Universe, v: Universe) -> None:
    if u is not v:
        raise MixedUniverseError("values belong to different universes")


class Subset:
    """Subset of a universe, stored as a membership mask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask & ~universe.full_mask:
            raise BadElementError("mask has bits outside the universe")
        self.universe = universe
        self.mask = mask

    @classmethod
    def from_elements(cls, universe: Universe, elements: Iterable[int]) -> "Subset":
        mask = 0
        for e in elements:
            universe.check_element(e)
            mask |= 1 << e
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: Universe) -> "Subset":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "Subset":
        return cls(universe, universe.full_mask)

    def elements(self) -> Iterator[int]:
        mask = self.mask
        i = 0
        while mask:
            if mask & 1:
                yield i
            mask >>= 1
            i += 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe.size and (self.mask >> i) & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, Subset)
            and self.universe is other.universe
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.universe), self.mask))

    def __and__(self, other: "Subset") -> "Subset":
        _check_same(self.universe, other.universe)
        return Subset(self.universe, self.mask & other.mask)

    def __or__(self, other: "Subset") -> "Subset":
        _check_same(self.universe, other.universe)
        return Subset(self.universe, self.mask | other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        _check_same(self.universe, other.universe)
        return Subset(self.universe, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.universe, self.universe.full_mask & ~self.mask)

    def __le__(self, other: "Subset") -> bool:
        """Subset-or-equal test."""
        _check_same(self.universe, other.universe)
        return not (self.mask & ~other.mask)

    def __repr__(self):
        items = ", ".join(self.universe.label(i) for i in self.elements())
        return "{" + items + "}"


class BinRelation:
    """Binary relation on a universe, stored as per-row membership masks."""

    __slots__ = ("universe", "rows")

    def __init__(self, universe: Universe, rows: Sequence[int]):
        rows = tuple(rows)
        if len(rows) != universe.size:
            raise BadElementError("row count differs from universe size")
        full = universe.full_mask
        for r in rows:
            if r & ~full:
                raise BadElementError("row mask has bits outside the universe")
        self.universe = universe
        self.rows = rows

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> "BinRelation":
        rows = [0] * universe.size
        for a, b in pairs:
            universe.check_element(a)
            universe.check_element(b)
            rows[a] |= 1 << b
        return cls(universe, rows)

    @classmethod
    def identity(cls, universe: Universe) -> "BinRelation":
        return cls(universe, tuple(1 << i for i in range(universe.size)))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered pairs, ascending lexicographically."""
        for a, row in enumerate(self.rows):
            b = 0
            while row:
                if row & 1:
                    yield (a, b)
                row >>= 1
                b += 1

    @property
    def pair_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        size = self.universe.size
        return 0 <= a < size and 0 <= b < size and (self.rows[a] >> b) & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, BinRelation)
            and self.universe is other.universe
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.universe), self.rows))

    def __and__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __sub__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, tuple(a & ~b for a, b in zip(self.rows, other.rows)))

    def __le__(self, other: "BinRelation") -> bool:
        _check_same(self.universe, other.universe)
        return all(not (a & ~b) for a, b in zip(self.rows, other.rows))

    def classify(self) -> "Classification":
        return Classification(kernels.classify_rows(self.rows))

    def transitive_closure(self) -> "BinRelation":
        return BinRelation(self.universe, kernels.closure_rows(self.rows))

    def to_partition(self) -> "Partition":
        """Partition of an equivalence relation; raises NotEquivalenceError otherwise."""
        c = self.classify()
        if not c.reflexive:
            raise NotEquivalenceError("reflexivity")
        if not c.symmetric:
            raise NotEquivalenceError("symmetry")
        if not c.transitive:
            raise NotEquivalenceError("transitivity")
        return Partition(self.universe, kernels.rows_to_rgs(self.rows))

    def __repr__(self):
        u = self.universe
        body = ", ".join(f"({u.label(a)}, {u.label(b)})" for a, b in self.pairs())
        return "{" + body + "}"


class Classification:
    """Reflexive/symmetric/transitive flags of a relation."""

    __slots__ = ("flags",)

    def __init__(self, flags: int):
        self.flags = flags

    @property
    def reflexive(self) -> bool:
        return bool(self.flags & kernels.REFLEXIVE)

    @property
    def symmetric(self) -> bool:
        return bool(self.flags & kernels.SYMMETRIC)

    @property
    def transitive(self) -> bool:
        return bool(self.flags & kernels.TRANSITIVE)

    @property
    def equivalence(self) -> bool:
        return self.flags == kernels.EQUIVALENCE

    def __eq__(self, other):
        return isinstance(other, Classification) and self.flags == other.flags

    def __repr__(self):
        return (
            f"Classification(reflexive={self.reflexive}, "
            f"symmetric={self.symmetric}, transitive={self.transitive})"
        )


class Partition:
    """Partition of a universe, canonically encoded as a restricted-growth string."""

    __slots__ = ("universe", "rgs", "_blocks")

    def __init__(self, universe: Universe, rgs: Sequence[int]):
        rgs = tuple(rgs)
        if len(rgs) != universe.size:
            raise NotAPartitionError("encoding length differs from universe size")
        mx = -1
        for i, b in enumerate(rgs):
            if b < 0 or b > mx + 1:
                raise NotAPartitionError(
                    f"not a restricted-growth string at position {i}"
                )
            if b == mx + 1:
                mx = b
        self.universe = universe
        self.rgs = rgs
        self._blocks = None

    @classmethod
    def from_blocks(cls, universe: Universe, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonical partition from a block list; order inside the input is irrelevant."""
        owner = [-1] * universe.size
        for bi, block in enumerate(blocks):
            empty = True
            for e in block:
                universe.check_element(e)
                empty = False
                if owner[e] != -1:
                    raise NotAPartitionError(
                        f"element {universe.label(e)} appears in two blocks"
                    )
                owner[e] = bi
            if empty:
                raise NotAPartitionError("empty block")
        if -1 in owner:
            missing = universe.label(owner.index(-1))
            raise NotAPartitionError(f"element {missing} not covered by any block")
        relabel: dict[int, int] = {}
        rgs = []
        for bi in owner:
            if bi not in relabel:
                relabel[bi] = len(relabel)
            rgs.append(relabel[bi])
        return cls(universe, rgs)

    @classmethod
    def identity(cls, universe: Universe) -> "Partition":
        """All-singletons partition."""
        return cls(universe, range(universe.size))

    @classmethod
    def single_block(cls, universe: Universe) -> "Partition":
        return cls(universe, (0,) * universe.size)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[Subset, ...]:
        if self._blocks is None:
            self._blocks = tuple(
                Subset(self.universe, m) for m in kernels.block_masks(self.rgs)
            )
        return self._blocks

    def block_of(self, x: int) -> Subset:
        """The unique block containing x."""
        self.universe.check_element(x)
        return self.blocks()[self.rgs[x]]

    def to_relation(self) -> BinRelation:
        return BinRelation(self.universe, kernels.partition_rows(self.rgs))

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        _check_same(self.universe, other.universe)
        return kernels.refines_rgs(self.rgs, other.rgs)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement (pairwise block intersections)."""
        _check_same(self.universe, other.universe)
        return Partition(self.universe, kernels.meet_rgs(self.rgs, other.rgs))

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening (transitive closure of the union)."""
        _check_same(self.universe, other.universe)
        return Partition(self.universe, kernels.join_rgs(self.rgs, other.rgs))

    def raw_union(self, other: "Partition") -> BinRelation:
        """Plain pair-set union of the two equivalences; may not be one itself."""
        return self.to_relation() | other.to_relation()

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.universe is other.universe
            and self.rgs == other.rgs
        )

    def __hash__(self):
        return hash((id(self.universe), self.rgs))

    def __repr__(self):
        return "{" + ", ".join(repr(b) for b in self.blocks()) + "}"


def partition_from_blocks(universe: Universe, blocks: Iterable[Iterable[int]]) -> Partition:
    return Partition.from_blocks(universe, blocks)

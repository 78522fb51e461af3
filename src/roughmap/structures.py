"""Finite universes, subsets, binary relations, and partitions.

Elements are dense indices 0..size-1; optional display labels live on the
Universe and are only touched by the IO layer.  All values are immutable
after construction and compare by universe identity plus payload.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from . import kernels
from .enumeration import canonical_table
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

    def __init__(self, size: int, labels: Sequence[str] | None = None):
        # bool is an int subclass, so compare the type itself
        if type(size) is not int or size < 1:
            raise EmptyUniverseError(f"universe size must be an int of at least 1, not {size!r}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise BadLabelsError(f"{len(labels)} labels for {size} elements")
            if not all(isinstance(label, str) for label in labels) or len(set(labels)) != size:
                raise BadLabelsError("labels must be distinct strings")
        self.size = size
        self.labels = labels

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def label(self, i: int) -> str:
        # unlabeled universes print 1-based, matching the U = {1, ..., n} convention
        return self.labels[i] if self.labels else str(i + 1)

    def check_element(self, i: int) -> None:
        if type(i) is not int:
            raise BadElementError(f"element {i!r} is not an int index")
        if not 0 <= i < self.size:
            raise BadElementError(f"element {i} outside universe of size {self.size}")

    def __repr__(self):
        if self.labels:
            return f"Universe({{{', '.join(self.labels)}}})"
        return f"Universe(size={self.size})"


def make_universe(size: int, labels: Sequence[str] | None = None) -> Universe:
    """Universe with elements 0..size-1 and optional distinct labels."""
    return Universe(size, labels)


def _check_same(u: Universe, v: Universe) -> None:
    if u is not v:
        raise MixedUniverseError("values belong to different universes")


class Subset:
    """Subset of a universe, stored as a membership mask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if type(mask) is not int or mask & ~universe.full_mask:
            raise BadElementError("a subset is one int mask with no bits outside the universe")
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
        return kernels.elements(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        # bool is an int subclass, so compare the type itself
        return type(i) is int and 0 <= i < self.universe.size and (self.mask >> i) & 1 == 1

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
    """Binary relation on a universe, stored as one packed int (the layout
    is in `kernels`)."""

    __slots__ = ("universe", "packed")

    def __init__(self, universe: Universe, packed: int):
        if type(packed) is not int or packed < 0 or packed >> universe.size**2:
            raise BadElementError("a relation is one packed int with no pairs outside the universe")
        self.universe = universe
        self.packed = packed

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> "BinRelation":
        packed = 0
        for a, b in pairs:
            universe.check_element(a)
            universe.check_element(b)
            packed |= 1 << a * universe.size + b
        return cls(universe, packed)

    @classmethod
    def identity(cls, universe: Universe) -> "BinRelation":
        return Partition.identity(universe).to_relation()

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered pairs, ascending lexicographically."""
        return kernels.pairs(self.packed, self.universe.size)

    @property
    def pair_count(self) -> int:
        return self.packed.bit_count()

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        size = self.universe.size
        return (
            type(a) is int and type(b) is int
            and 0 <= a < size and 0 <= b < size
            and (self.packed >> a * size + b) & 1 == 1
        )

    def __eq__(self, other):
        return (
            isinstance(other, BinRelation)
            and self.universe is other.universe
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((id(self.universe), self.packed))

    def __and__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, self.packed & other.packed)

    def __or__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, self.packed | other.packed)

    def __sub__(self, other: "BinRelation") -> "BinRelation":
        _check_same(self.universe, other.universe)
        return BinRelation(self.universe, self.packed & ~other.packed)

    def __le__(self, other: "BinRelation") -> bool:
        _check_same(self.universe, other.universe)
        return not (self.packed & ~other.packed)

    def classify(self) -> "Classification":
        return Classification(kernels.classify(self.packed, self.universe.size))

    def transitive_closure(self) -> "BinRelation":
        return BinRelation(self.universe, kernels.closure(self.packed, self.universe.size))

    def to_partition(self) -> "Partition":
        """Partition of an equivalence relation; raises NotEquivalenceError otherwise."""
        m = self.universe.size
        for axiom, items in zip(kernels.AXIOMS, kernels.broken_axioms(self.packed, m)):
            if items:
                raise NotEquivalenceError(axiom)
        return Partition(self.universe, kernels.relation_rgs(self.packed, m))

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
            if type(b) is not int:
                raise NotAPartitionError(f"block id {b!r} at position {i} is not an int")
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
        return cls(universe, canonical_table(owner))

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
                Subset(self.universe, m) for m in kernels.fiber_masks(self.rgs, self.block_count)
            )
        return self._blocks

    def block_of(self, x: int) -> Subset:
        """The unique block containing x."""
        self.universe.check_element(x)
        return self.blocks()[self.rgs[x]]

    def to_relation(self) -> BinRelation:
        return BinRelation(self.universe, kernels.partition_relation(self.rgs))

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other: self ∧ other = self."""
        mine = self.to_relation()
        return mine & other.to_relation() == mine

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: the intersection of the two relations."""
        return (self.to_relation() & other.to_relation()).to_partition()

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening: the transitive closure of the union."""
        return self.raw_union(other).transitive_closure().to_partition()

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

"""Claim registry and four-valued per-instance evaluation.

Each claim gets a verdict on a concrete instance (universes, a map, one or
two partitions, optionally a subset X):

    IllTyped  - the conclusion mentions an object outside its operation's
                domain, e.g. approximating over a non-equivalence relation
    Vacuous   - the hypothesis is false, so the claim says nothing here
    Holds     - hypothesis true, conclusion true
    Fails     - hypothesis true, conclusion false; carries a witness

Type checks run before the hypothesis, which runs before the conclusion;
an approximation over a non-equivalence is never formed, not even to test
a hypothesis.  Expected statuses record what is already established about
each claim: "refuted" (a counterexample is documented), "proved",
"ill-typed" (the statement itself misapplies an operation), or "open"
(no established status; search results are findings, not confirmations).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Union

from . import kernels
from .kernels import contribution, fiber_counts
from .enumeration import iter_rgs
from .errors import BadInstanceError
from .mappings import SurjMap
from .structures import Partition, Subset
from .witnesses import (
    not_equivalence,
    pairs,
    relation_not_equal,
    relation_not_included,
    subset_not_equal,
    subset_not_included,
)


class Outcome(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    ILL_TYPED = "ill-typed"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: Optional[dict] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.outcome is Outcome.FAILS and self.witness is None:
            raise ValueError("Fails needs a witness")
        if self.outcome is Outcome.ILL_TYPED and self.reason is None:
            raise ValueError("IllTyped needs a reason")


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    partitions: int  # 1 or 2
    needs_subset: bool
    map_constraint: str  # any | surjective | bijective
    expected_status: str  # refuted | proved | ill-typed | open
    note: str = ""


_OPEN_NOTE = "no established status; search results at bounded sizes are findings"

REGISTRY: dict[str, Claim] = {
    c.id: c
    for c in [
        Claim(
            "T31",
            "for surjective f and equivalence R, f(R) is an equivalence on V",
            1, False, "surjective", "open",
            "symmetry and reflexivity are established; transitivity is " + _OPEN_NOTE,
        ),
        Claim(
            "T31-refl",
            "f(R) is reflexive on V exactly when f is surjective",
            1, False, "any", "proved",
        ),
        Claim(
            "L31-1-fwd",
            "R1 ⊆ R2 implies f(R1) ⊆ f(R2)",
            2, False, "surjective", "refuted",
        ),
        Claim(
            "L31-1-bwd",
            "f(R1) ⊆ f(R2) implies R1 ⊆ R2",
            2, False, "surjective", "refuted",
        ),
        Claim(
            "L31-2-inc",
            "f(R1 ∩ R2) ⊆ f(R1) ∩ f(R2)",
            2, False, "surjective", "refuted",
        ),
        Claim(
            "L31-2-eq",
            "if [x]_f ⊆ [x]_R1 and [x]_f ⊆ [x]_R2 for all x, "
            "then f(R1 ∩ R2) = f(R1) ∩ f(R2)",
            2, False, "surjective", "open", _OPEN_NOTE,
        ),
        Claim(
            "L31-3-inc",
            "f(R1 ∪ R2) ⊇ f(R1) ∪ f(R2); "
            "well-typed only when R1 ∪ R2 is an equivalence",
            2, False, "surjective", "refuted",
        ),
        Claim(
            "L31-3-eq",
            "under the fiber condition of L31-2-eq, f(R1 ∪ R2) = "
            "f(R1) ∪ f(R2); well-typed only when R1 ∪ R2 is an equivalence",
            2, False, "surjective", "open", _OPEN_NOTE,
        ),
        Claim(
            "L31-3-join",
            "f(R1 ∨ R2) ⊇ f(R1) ∪ f(R2), with ∨ the partition join",
            2, False, "surjective", "open", _OPEN_NOTE,
        ),
        Claim(
            "L32",
            "under the fiber condition, f(R1) - f(R2) = f(R1 - R2)",
            2, False, "surjective", "ill-typed",
            "R1 - R2 is never reflexive, so f cannot be applied to it",
        ),
        Claim(
            "T41-1",
            "f(apr_R X) ⊆ apr_f(R) f(X)",
            1, True, "surjective", "refuted",
        ),
        Claim(
            "T41-2",
            "f(apr̄_R X) ⊇ apr̄_f(R) f(X)",
            1, True, "surjective", "refuted",
        ),
        Claim(
            "T42-1",
            "for bijective f, f(apr_R X) = apr_f(R) f(X)",
            1, True, "bijective", "proved",
        ),
        Claim(
            "T42-2",
            "for bijective f, f(apr̄_R X) = apr̄_f(R) f(X)",
            1, True, "bijective", "proved",
        ),
        Claim(
            "T43-1",
            "for definable X (apr_R X = apr̄_R X = X), apr_f(R) f(X) = f(X)",
            1, True, "surjective", "refuted",
        ),
        Claim(
            "T43-2",
            "for definable X (apr_R X = apr̄_R X = X), apr̄_f(R) f(X) = f(X)",
            1, True, "surjective", "refuted",
        ),
    ]
}


def get_claim(claim: Union[str, Claim]) -> Claim:
    if isinstance(claim, Claim):
        return claim
    try:
        return REGISTRY[claim]
    except KeyError:
        raise BadInstanceError(f"unknown claim id {claim!r}") from None


def list_claims() -> list[Claim]:
    return list(REGISTRY.values())


@dataclass(frozen=True)
class Instance:
    """Concrete data a claim is evaluated on."""

    f: SurjMap
    partitions: tuple[Partition, ...]
    x: Optional[Subset] = None

    def __post_init__(self):
        for p in self.partitions:
            if p.universe is not self.f.domain:
                raise BadInstanceError("partition not over the map's domain")
        if self.x is not None and self.x.universe is not self.f.domain:
            raise BadInstanceError("subset X not over the map's domain")


def check_shape(claim: Claim, inst: Instance) -> None:
    if len(inst.partitions) != claim.partitions:
        raise BadInstanceError(
            f"{claim.id} needs {claim.partitions} partition(s), got {len(inst.partitions)}"
        )
    if claim.needs_subset and inst.x is None:
        raise BadInstanceError(f"{claim.id} needs a subset X")
    if claim.map_constraint == "surjective" and not inst.f.surjective:
        raise BadInstanceError(f"{claim.id} needs a surjective map")
    if claim.map_constraint == "bijective" and not inst.f.bijective:
        raise BadInstanceError(f"{claim.id} needs a bijective map")


# ------------------------------------------------------------------- tables
#
# An evaluator needs approximations of masks over a partition, lattice
# operations on pairs of partitions, images of masks and the image relation
# f(R).  The first two depend on the universe size alone and are shared by
# every map of that size; the last two are kept per map, in GroupContext.
# A partition is its equivalence relation, packed into one int as every
# relation is (kernels), so the lattice is relation algebra: the meet is
# R1 & R2, the join closure(R1 | R2) (the stored rows merge block masks,
# which gives the same partition), and the union R1 | R2 when that is an
# equivalence.  R1 ⊆ R2 when R1 ∧ R2 = R1, and the fiber condition when
# ker f ∧ R = ker f.  Evaluators name a partition by a handle of the size
# tables, which size_tables picks: up to _TABLE_MAX_N elements
# _SizeTables, whose handle is the relation's index into `relations`, the
# partitions in lex order of their rgs, and whose rows are filled lazily;
# above it _DirectTables, whose handle is the relation itself and which
# computes every answer on each call.  On both, `index` maps a partition's
# relation to its handle, and `handle` and `rgs` convert at the boundary.
# f(R) is the OR of kernels.contribution over R's blocks, packed on V.
# Every memo of the engine lives on the tables of the size its key names,
# which size_tables keeps one per size, so size_tables.cache_clear() gives
# a fresh engine; a single evaluate() builds its own and leaves no state.

# at 7 elements a pair operation fills at most B(7)**2 = 769,129 slots
# (about 6 MB); at 8 it would be B(8)**2 = 17,139,600
_TABLE_MAX_N = 7
_TODO = object()  # an approximation slot not filled yet


class _Computed:
    """A table too large to store: entry x is computed when it is read."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, x):
        return self.entry(x)


class _Cached(dict):
    """A table too large to build whole: entry x is stored on first read."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __missing__(self, x):
        hit = self[x] = self.entry(x)
        return hit


class _Relation:
    """A packed relation on V and its classification flags."""

    __slots__ = ("packed", "flags")

    def __init__(self, kern, m: int, packed: int):
        self.packed = packed
        self.flags = kern.classify(packed, m)


def _listed_relations(n: int) -> list:
    """The relation of every partition of n elements, in lex order of the rgs."""
    return [kernels.partition_relation(rgs) for rgs in iter_rgs(n)]


class _DirectTables:
    """Per-size answers computed by the kernels on every call; a partition's
    handle is its packed relation, so `relations` and `index` map a handle
    to itself.

    Nothing is kept per group: a search group reads each (partition,
    subset) approximation once, so keeping them would hold up to
    2·B(n)·2**n masks per group and reuse none.  What every group reads is
    kept for as long as the tables: the partitions, listed on the first
    `handles()`, their block masks (`blocks`) and the relations on V met so
    far with their classification (`classified`).
    """

    def __init__(self, n: int):
        self.n = n
        kern = self.kern = kernels.select(n)
        self.relations = self.index = _Computed(lambda r: r)
        self.blocks = _Cached(lambda r: kern.relation_blocks(r, n))
        self.classified = {}
        self._listed = None

    def handle(self, rgs):
        return self.index[self.kern.partition_relation(rgs)]

    def rgs(self, h) -> tuple:
        return self.kern.relation_rgs(self.relations[h], self.n)

    def handles(self) -> list:  # in lex order
        if self._listed is None:
            self._listed = _listed_relations(self.n)
        return self._listed

    def approx(self, r: int):
        """(lower, upper) approximations over r, each indexed by subset mask."""
        blocks = self.blocks[r]
        lub = self.kern.lower_upper_masks
        return _Computed(lambda x: lub(blocks, x)[0]), _Computed(lambda x: lub(blocks, x)[1])

    meet = staticmethod(int.__and__)

    def join(self, r1: int, r2: int) -> int:
        return self.kern.closure(r1 | r2, self.n)

    def union(self, r1: int, r2: int) -> Optional[int]:
        """R1 ∪ R2 when it is an equivalence, else None: it is reflexive and
        symmetric, so one exactly when it is its own closure, the join."""
        r = r1 | r2
        return r if self.kern.closure(r, self.n) == r else None


class _SizeTables:
    """The answers of _DirectTables, stored; a partition's handle is its
    relation's index into `relations`, the partitions in lex order.

    `blocks` lists each partition's block masks.  Partition i gets its
    approximation rows (2**n masks each), and each pair operation its row i,
    when first read, filled whole with one entry per second partition: at
    most B(n)**2 entries per operation.  An entry is the handle of the
    resulting relation, so a union that is no partition's relation, no
    equivalence, reads None.  The meet and union rows are & and | on the
    packed relations; the join rows merge block masks, which at 7 elements
    fills a row about 7 times faster than closure(R1 | R2).

    GroupContext's memos on U live here: `maps`, the tables it fills per
    map, keyed by table, for the maps into one size of V, `maps_into`, and
    `block_contributions`, keyed by fiber sizes, then by a block's per-fiber
    counts packed into one int.  As on _DirectTables, `classified` keeps
    the relations on V of this size met so far, with their classification.
    """

    def __init__(self, n: int):
        self.n = n
        self.kern = kern = kernels.select(n)
        self.relations = _listed_relations(n)
        self.index = {r: i for i, r in enumerate(self.relations)}
        self.blocks = [kern.relation_blocks(r, n) for r in self.relations]
        count = len(self.relations)
        self._approx, self._meet, self._join, self._union = ([None] * count for _ in range(4))
        self._by_blocks = None  # partition's set of block masks -> handle, for the join rows
        self.maps_into, self.maps = None, {}
        self.block_contributions, self.classified = {}, {}

    handle, rgs = _DirectTables.handle, _DirectTables.rgs

    def handles(self) -> range:
        return range(len(self.relations))

    def approx(self, i: int):
        hit = self._approx[i]
        if hit is None:
            lub = self.kern.lower_upper_masks
            blocks = self.blocks[i]
            hit = self._approx[i] = tuple(zip(*[lub(blocks, x) for x in range(1 << self.n)]))
        return hit

    def _fill(self, rows: list, op, i: int) -> list:
        """Row i of one pair operation: op on partition i's relation and each
        partition's in turn, each result named by its handle."""
        first, handle = self.relations[i], self.index.get
        row = rows[i] = [handle(op(first, r)) for r in self.relations]
        return row

    def meet(self, i: int, j: int) -> int:
        return (self._meet[i] or self._fill(self._meet, int.__and__, i))[j]

    def _join_row(self, i: int) -> list:
        """Row i of the join, by merging blocks: each block of partition j
        that meets several blocks of the running merge, which starts as
        partition i's, joins them into one.  The merged blocks are the
        join's, and their set names its handle."""
        by_blocks = self._by_blocks
        if by_blocks is None:
            by_blocks = self._by_blocks = {frozenset(b): h for h, b in enumerate(self.blocks)}
        first = self.blocks[i]
        row = self._join[i] = []
        for blocks in self.blocks:
            merged = first
            for b in blocks:
                if b & (b - 1):  # a single element lies in one block already
                    hit = 0
                    rest = []
                    for a in merged:
                        if a & b:
                            hit |= a
                        else:
                            rest.append(a)
                    rest.append(hit)
                    merged = rest
            row.append(by_blocks[frozenset(merged)])
        return row

    def join(self, i: int, j: int) -> int:
        return (self._join[i] or self._join_row(i))[j]

    def union(self, i: int, j: int) -> Optional[int]:
        return (self._union[i] or self._fill(self._union, int.__or__, i))[j]


@lru_cache(maxsize=None)
def size_tables(n: int):
    """Approximation and partition-pair tables for a sweep over size n, one
    object per size for the process: every memo of the engine hangs off it."""
    return _SizeTables(n) if n <= _TABLE_MAX_N else _DirectTables(n)


class GroupContext:
    """Shared per-(n, m, table) computations for one batch of instances.

    The image and the block contribution to f(R) of every mask of U depend
    only on the map; f(R) (`relmaps`), the fiber condition and the
    approximation rows on U and V only on the map and one partition.  So a
    search group keeps them here, per partition handle of `sizes`, the size
    tables of U: on _SizeTables in lists filled for every partition when the
    group starts, on _DirectTables as they are first read.  The rows on V
    come from `vsizes`, the size tables of V, which a search passes in the
    form size_tables picks and evaluate() as _DirectTables.

    On _SizeTables the three tables filled when the group starts, `images`,
    `contributions` and `relmaps`, are read, never written, so contexts of
    one table share them: `sizes.maps` keeps them by table for the maps
    into one size of V, and is emptied when a context for another size is
    built.  A verify sweep builds every group's context on its table's
    canonical form, so groups whose tables differ only by a relabeling of V
    share these tables (see `search`).  The fiber-condition and
    approximation slots stay per context: shared, they would keep every
    map's rows filled at once.  The memos a context fills belong to the
    size tables and live as long as they do: `sizes.maps` and
    `sizes.block_contributions` on U, `vsizes.classified` on V.
    """

    __slots__ = (
        "n", "m", "table", "kern", "fibers", "surjective", "sizes", "vsizes", "images",
        "contributions", "relmaps", "_relations", "_ker", "_fiber_ok", "_approx",
    )

    def __init__(self, sizes, vsizes, table: tuple[int, ...]):
        self.sizes, self.vsizes = sizes, vsizes
        self.n = n = sizes.n
        self.m = m = vsizes.n
        self.table = table = tuple(table)
        self.kern = kernels.select(n, m)
        self.fibers = self.kern.fiber_masks(table, m)
        self.surjective = all(f != 0 for f in self.fibers)
        self._ker = None  # handle of ker f, found by the first fiber_ok
        self._relations = vsizes.classified
        if type(sizes) is _SizeTables:
            if sizes.maps_into != m:
                sizes.maps_into, sizes.maps = m, {}
            hit = sizes.maps.get(table)
            if hit is None:
                self._fill_tables()
                # a search group reads every partition's f(R)
                hit = sizes.maps[table] = self.images, self.contributions, [self.relmap(h) for h in sizes.handles()]
            self.images, self.contributions, self.relmaps = hit
            self._fiber_ok = [None] * len(self.relmaps)
            self._approx = [_TODO] * len(self.relmaps)
        else:
            fibers, image_mask = self.fibers, self.kern.image_mask
            fiber_sizes = [f.bit_count() for f in fibers]
            self.images = _Cached(lambda x: image_mask(table, x))
            self.contributions = _Cached(lambda block: contribution(fiber_sizes, fiber_counts(fibers, block)))
            self.relmaps = _Cached(self.relmap)
            # unread handles read as unfilled, as in the lists above
            self._fiber_ok = _Cached(lambda h: None)
            self._approx = _Cached(lambda h: _TODO)

    def _fill_tables(self) -> None:
        """images[x] = f(x) and contributions[x] for every mask x of U.

        Each mask adds its lowest element to the rest: one more value in the
        image, one more element counted in that value's fiber.  The counts
        |F_v ∩ x| ride in one int, n.bit_length() bits per fiber.
        """
        table, n = self.table, self.n
        sizes = tuple(f.bit_count() for f in self.fibers)
        memo = self.sizes.block_contributions.setdefault(sizes, {})
        width = n.bit_length()
        full = (1 << width) - 1
        images = [0] * (1 << n)
        counts = [0] * (1 << n)
        contributions = [0] * (1 << n)
        for x in range(1, 1 << n):
            low = x & -x
            v = table[low.bit_length() - 1]
            images[x] = images[x ^ low] | 1 << v
            c = counts[x] = counts[x ^ low] + (1 << v * width)
            hit = memo.get(c)
            if hit is None:
                hit = memo[c] = contribution(sizes, [(c >> i * width) & full for i in range(len(sizes))])
            contributions[x] = hit
        self.images = images
        self.contributions = contributions

    def relmap(self, h) -> _Relation:
        """The image relation f(R) of the partition h, computed (`relmaps` keeps it)."""
        packed = 0
        contributions = self.contributions
        for block in self.sizes.blocks[h]:
            packed |= contributions[block]
        hit = self._relations.get(packed)
        if hit is None:
            hit = self._relations[packed] = _Relation(self.kern, self.m, packed)
        return hit

    def fiber_ok(self, h) -> bool:
        """True when every fiber of f lies inside one block of partition h:
        ker f ≤ h, that is ker f ∧ h = ker f."""
        hit = self._fiber_ok[h]
        if hit is None:
            ker = self._ker
            if ker is None:
                ker = self._ker = self.sizes.index[self.kern.partition_relation(self.table)]
            hit = self._fiber_ok[h] = self.sizes.meet(ker, h) == ker
        return hit

    def approx(self, h):
        """(lo_U, hi_U, lo_V, hi_V) for the partition h, or None when f(R)
        is not an equivalence.

        lo_U[x], hi_U[x] are the approximations of a mask x of U over R;
        lo_V[y], hi_V[y] those of a mask y of V over f(R).
        """
        hit = self._approx[h]
        if hit is _TODO:
            rel, vsizes = self.relmaps[h], self.vsizes
            if rel.flags == kernels.EQUIVALENCE:
                hit = self.sizes.approx(h) + vsizes.approx(vsizes.index[rel.packed])
            else:
                hit = None
            self._approx[h] = hit
        return hit


# --------------------------------------------------------------- evaluators
#
# Each evaluator takes (ctx, h1, h2, xmask), partitions as handles of
# ctx.sizes, and returns a Verdict or a _Failure.  h2/xmask are None when the
# claim shape does not use them.  Verdicts without a witness are constants.

_HOLDS = Verdict(Outcome.HOLDS)
_VACUOUS = Verdict(Outcome.VACUOUS)
_ILL_UNION = Verdict(Outcome.ILL_TYPED, reason="union-not-equivalence")
_ILL_DIFFERENCE = Verdict(Outcome.ILL_TYPED, reason="difference-not-reflexive")
_ILL_RELMAP = Verdict(Outcome.ILL_TYPED, reason="relmap-not-equivalence")


class _Failure:
    """A Fails verdict whose witness build(*args) makes when it is read."""

    __slots__ = ("build", "args")
    outcome = Outcome.FAILS

    def __init__(self, build, *args):
        self.build, self.args = build, args

    @property
    def witness(self) -> dict:
        return self.build(*self.args)


def _eval_t31(ctx, h1, h2, xmask):
    rel = ctx.relmaps[h1]
    if rel.flags == kernels.EQUIVALENCE:
        return _HOLDS
    return _Failure(not_equivalence, rel.packed, ctx.m)


def _reflexivity_mismatch(ctx, rel, reflexive: bool) -> dict:
    m = ctx.m
    if ctx.surjective:
        v = next(v for v in range(m) if not (rel.packed >> v * (m + 1)) & 1)
    else:
        v = next(v for v in range(m) if ctx.fibers[v] == 0)
    return {
        "kind": "reflexivity-mismatch",
        "surjective": ctx.surjective,
        "reflexive": reflexive,
        "element": v,
        "relation": pairs(rel.packed, m),
    }


def _eval_t31_refl(ctx, h1, h2, xmask):
    rel = ctx.relmaps[h1]
    reflexive = bool(rel.flags & kernels.REFLEXIVE)
    if reflexive == ctx.surjective:
        return _HOLDS
    return _Failure(_reflexivity_mismatch, ctx, rel, reflexive)


def _eval_l311_fwd(ctx, h1, h2, xmask):
    if ctx.sizes.meet(h1, h2) != h1:
        return _VACUOUS
    left = ctx.relmaps[h1].packed
    right = ctx.relmaps[h2].packed
    if not left & ~right:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1)", left, "f(R2)", right)


def _partitions_not_included(ctx, h1, h2) -> dict:
    relations = ctx.sizes.relations
    return relation_not_included("domain", ctx.n, "R1", relations[h1], "R2", relations[h2])


def _eval_l311_bwd(ctx, h1, h2, xmask):
    if ctx.relmaps[h1].packed & ~ctx.relmaps[h2].packed:
        return _VACUOUS
    if ctx.sizes.meet(h1, h2) == h1:
        return _HOLDS
    return _Failure(_partitions_not_included, ctx, h1, h2)


def _eval_l312_inc(ctx, h1, h2, xmask):
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.meet(h1, h2)].packed
    right = relmaps[h1].packed & relmaps[h2].packed
    if not left & ~right:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1 ∩ R2)", left, "f(R1) ∩ f(R2)", right)


def _eval_l312_eq(ctx, h1, h2, xmask):
    if not (ctx.fiber_ok(h1) and ctx.fiber_ok(h2)):
        return _VACUOUS
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.meet(h1, h2)].packed
    right = relmaps[h1].packed & relmaps[h2].packed
    if left == right:
        return _HOLDS
    return _Failure(relation_not_equal, "codomain", ctx.m, "f(R1 ∩ R2)", left, "f(R1) ∩ f(R2)", right)


def _eval_l313_inc(ctx, h1, h2, xmask):
    union = ctx.sizes.union(h1, h2)
    if union is None:
        return _ILL_UNION
    relmaps = ctx.relmaps
    left = relmaps[union].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if not right & ~left:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∪ R2)", left)


def _eval_l313_eq(ctx, h1, h2, xmask):
    union = ctx.sizes.union(h1, h2)
    if union is None:
        return _ILL_UNION
    if not (ctx.fiber_ok(h1) and ctx.fiber_ok(h2)):
        return _VACUOUS
    relmaps = ctx.relmaps
    left = relmaps[union].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if left == right:
        return _HOLDS
    return _Failure(relation_not_equal, "codomain", ctx.m, "f(R1 ∪ R2)", left, "f(R1) ∪ f(R2)", right)


def _eval_l313_join(ctx, h1, h2, xmask):
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.join(h1, h2)].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if not right & ~left:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∨ R2)", left)


def _eval_l32(ctx, h1, h2, xmask):
    # R1 and R2 are reflexive, so R1 - R2 always loses the whole diagonal
    # and can never be an equivalence; f(R1 - R2) is not formable.
    return _ILL_DIFFERENCE


def _eval_t41_1(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, _, lo_v, _ = tables
    images = ctx.images
    f_lo = images[lo_u[xmask]]
    lo_fx = lo_v[images[xmask]]
    if not (f_lo & ~lo_fx):
        return _HOLDS
    return _Failure(subset_not_included, "f(apr_R X)", f_lo, "apr_f(R) f(X)", lo_fx)


def _eval_t41_2(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    _, hi_u, _, hi_v = tables
    images = ctx.images
    f_hi = images[hi_u[xmask]]
    hi_fx = hi_v[images[xmask]]
    if not (hi_fx & ~f_hi):
        return _HOLDS
    return _Failure(subset_not_included, "apr̄_f(R) f(X)", hi_fx, "f(apr̄_R X)", f_hi)


def _eval_t42_1(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, _, lo_v, _ = tables
    images = ctx.images
    f_lo = images[lo_u[xmask]]
    lo_fx = lo_v[images[xmask]]
    if f_lo == lo_fx:
        return _HOLDS
    return _Failure(subset_not_equal, "f(apr_R X)", f_lo, "apr_f(R) f(X)", lo_fx)


def _eval_t42_2(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    _, hi_u, _, hi_v = tables
    images = ctx.images
    f_hi = images[hi_u[xmask]]
    hi_fx = hi_v[images[xmask]]
    if f_hi == hi_fx:
        return _HOLDS
    return _Failure(subset_not_equal, "f(apr̄_R X)", f_hi, "apr̄_f(R) f(X)", hi_fx)


def _eval_t43_1(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, hi_u, lo_v, _ = tables
    if not (lo_u[xmask] == xmask and hi_u[xmask] == xmask):
        return _VACUOUS
    fx = ctx.images[xmask]
    lo_fx = lo_v[fx]
    if lo_fx == fx:
        return _HOLDS
    return _Failure(subset_not_equal, "apr_f(R) f(X)", lo_fx, "f(X)", fx)


def _eval_t43_2(ctx, h1, h2, xmask):
    tables = ctx.approx(h1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, hi_u, _, hi_v = tables
    if not (lo_u[xmask] == xmask and hi_u[xmask] == xmask):
        return _VACUOUS
    fx = ctx.images[xmask]
    hi_fx = hi_v[fx]
    if hi_fx == fx:
        return _HOLDS
    return _Failure(subset_not_equal, "apr̄_f(R) f(X)", hi_fx, "f(X)", fx)


_EVALUATORS = {
    "T31": _eval_t31,
    "T31-refl": _eval_t31_refl,
    "L31-1-fwd": _eval_l311_fwd,
    "L31-1-bwd": _eval_l311_bwd,
    "L31-2-inc": _eval_l312_inc,
    "L31-2-eq": _eval_l312_eq,
    "L31-3-inc": _eval_l313_inc,
    "L31-3-eq": _eval_l313_eq,
    "L31-3-join": _eval_l313_join,
    "L32": _eval_l32,
    "T41-1": _eval_t41_1,
    "T41-2": _eval_t41_2,
    "T42-1": _eval_t42_1,
    "T42-2": _eval_t42_2,
    "T43-1": _eval_t43_1,
    "T43-2": _eval_t43_2,
}

assert set(_EVALUATORS) == set(REGISTRY)


def evaluate_raw(claim_id: str, ctx: GroupContext, h1, h2=None, xmask: Optional[int] = None):
    """Evaluate on raw encodings, partitions as handles of ctx.sizes; shape
    is the caller's responsibility.  A failure comes back as a _Failure."""
    return _EVALUATORS[claim_id](ctx, h1, h2, xmask)


def evaluate(claim: Union[str, Claim], inst: Instance) -> Verdict:
    """Verdict of a claim on an instance; raises BadInstance on shape mismatch."""
    claim = get_claim(claim)
    check_shape(claim, inst)
    ctx = GroupContext(_DirectTables(inst.f.domain.size), _DirectTables(inst.f.codomain.size), inst.f.table)
    handles = [ctx.sizes.handle(p.rgs) for p in inst.partitions]
    verdict = evaluate_raw(claim.id, ctx, *handles, xmask=inst.x.mask if inst.x is not None else None)
    return Verdict(Outcome.FAILS, witness=verdict.witness) if verdict.outcome is Outcome.FAILS else verdict

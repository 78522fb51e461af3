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
# Tables are built lazily, on first use; above _TABLE_MAX_N elements the
# per-size answers are computed by the kernels on every call instead, and
# the per-map ones are kept as they are first read, for one GroupContext.
# f(R) is the OR of kernels.contribution over R's blocks, packed on V.

# at 7 elements a pair operation fills at most B(7)**2 = 769,129 slots
# (about 6 MB); at 8 it would be B(8)**2 = 17,139,600
_TABLE_MAX_N = 7
_TODO = object()  # a pair-row slot not filled yet

# process-wide memos, shared by every group: block contributions keyed by
# the fiber sizes, then by the per-fiber counts packed into one int; and
# relations on V keyed by m, then by the packed relation
_CONTRIBUTIONS: dict = {}
_RELATIONS: dict = {}


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
    """A packed relation on V, its classification flags and, when it is an
    equivalence, its rgs."""

    __slots__ = ("packed", "flags", "rgs")

    def __init__(self, kern, m: int, packed: int):
        self.packed = packed
        self.flags = kern.classify(packed, m)
        self.rgs = kern.relation_rgs(packed, m) if self.flags == kernels.EQUIVALENCE else None


class _DirectTables:
    """Per-size answers computed by the kernels on every call.

    Nothing is kept: a search group reads each partition's block masks once
    and each (partition, subset) approximation once, so keeping them would
    hold B(n) block tuples and up to 2·B(n)·2**n masks per group and reuse
    none.
    """

    def __init__(self, n: int):
        self.n = n
        self.kern = kernels.select(n)
        self.blocks = _Computed(self.kern.block_masks)

    def approx(self, rgs):
        """(lower, upper) approximations over rgs, each indexed by subset mask."""
        blocks = self.kern.block_masks(rgs)
        lub = self.kern.lower_upper_masks
        return _Computed(lambda x: lub(blocks, x)[0]), _Computed(lambda x: lub(blocks, x)[1])

    def meet(self, rgs1, rgs2):
        return self.kern.meet_rgs(rgs1, rgs2)

    def join(self, rgs1, rgs2):
        return self.kern.join_rgs(rgs1, rgs2)

    def refines(self, rgs1, rgs2) -> bool:
        return self.kern.refines_rgs(rgs1, rgs2)

    def union(self, rgs1, rgs2):
        """rgs of R1 ∪ R2 when that union is an equivalence, else None."""
        kern = self.kern
        union = kern.partition_relation(rgs1) | kern.partition_relation(rgs2)
        if kern.classify(union, self.n) != kernels.EQUIVALENCE:
            return None
        return kern.relation_rgs(union, self.n)


class _SizeTables:
    """The answers of _DirectTables, stored as they are first asked for.

    Partitions are kept in lex order with an rgs -> index dict and an
    rgs -> block masks dict.  Each partition gets its approximation rows
    (2**n masks each), and each operation on pairs one row per first
    partition, with a slot per second partition: at most B(n)**2 slots per
    operation.  Partitions in a slot are the tuples of `parts`, so no rgs is
    stored twice.
    """

    def __init__(self, n: int):
        self.n = n
        self.direct = _DirectTables(n)
        self.parts = list(iter_rgs(n))
        self.index = {rgs: i for i, rgs in enumerate(self.parts)}
        self.blocks = {rgs: self.direct.kern.block_masks(rgs) for rgs in self.parts}
        count = len(self.parts)
        self._approx = [None] * count
        self._meet = [None] * count
        self._join = [None] * count
        self._refines = [None] * count
        self._union = [None] * count

    def approx(self, rgs):
        i = self.index[rgs]
        hit = self._approx[i]
        if hit is None:
            lub = self.direct.kern.lower_upper_masks
            blocks = self.blocks[rgs]
            rows = [lub(blocks, x) for x in range(1 << self.n)]
            hit = self._approx[i] = tuple(zip(*rows))
        return hit

    def _pair(self, rows, compute, rgs1, rgs2):
        """Slot (rgs1, rgs2) of one operation's rows, filled by compute."""
        index = self.index
        i = index[rgs1]
        row = rows[i]
        if row is None:
            row = rows[i] = [_TODO] * len(self.parts)
        j = index[rgs2]
        hit = row[j]
        if hit is _TODO:
            hit = compute(rgs1, rgs2)
            if type(hit) is tuple:  # an rgs: keep the listed tuple instead
                hit = self.parts[index[hit]]
            row[j] = hit
        return hit

    def meet(self, rgs1, rgs2):
        return self._pair(self._meet, self.direct.meet, rgs1, rgs2)

    def join(self, rgs1, rgs2):
        return self._pair(self._join, self.direct.join, rgs1, rgs2)

    def refines(self, rgs1, rgs2) -> bool:
        return self._pair(self._refines, self.direct.refines, rgs1, rgs2)

    def union(self, rgs1, rgs2):
        return self._pair(self._union, self.direct.union, rgs1, rgs2)


@lru_cache(maxsize=_TABLE_MAX_N)
def _stored_tables(n: int) -> _SizeTables:
    return _SizeTables(n)


def _size_tables(n: int):
    """Approximation and partition-pair tables for universes of size n."""
    return _stored_tables(n) if n <= _TABLE_MAX_N else _DirectTables(n)


class GroupContext:
    """Shared per-(n, m, table) computations for one batch of instances.

    The image and the block contribution to f(R) of every mask of U depend
    only on the map; the fiber condition and the approximation rows on U and
    V only on the map and one partition.  So a search group iterating many
    partition and subset combinations keeps them here.
    """

    __slots__ = (
        "n", "m", "table", "kern", "fibers", "surjective", "bijective",
        "sizes", "images", "contributions", "_relations", "_relmap", "_fiber_ok",
        "_approx",
    )

    def __init__(self, n: int, m: int, table: tuple[int, ...]):
        self.n = n
        self.m = m
        self.table = table = tuple(table)
        self.kern = kernels.select(n, m)
        self.fibers = self.kern.fiber_masks(table, m)
        self.surjective = all(f != 0 for f in self.fibers)
        self.bijective = n == m and self.surjective
        self.sizes = _size_tables(n)
        self._relations = _RELATIONS.setdefault(m, {})
        self._relmap: dict = {}
        self._fiber_ok: dict = {}
        self._approx: dict = {}
        if n <= _TABLE_MAX_N:
            self._fill_tables()
        else:
            fibers, image_mask = self.fibers, self.kern.image_mask
            sizes = [f.bit_count() for f in fibers]
            self.images = _Cached(lambda x: image_mask(table, x))
            self.contributions = _Cached(
                lambda block: contribution(sizes, fiber_counts(fibers, block))
            )

    @classmethod
    def for_map(cls, f: SurjMap) -> "GroupContext":
        return cls(f.domain.size, f.codomain.size, f.table)

    def _fill_tables(self) -> None:
        """images[x] = f(x) and contributions[x] for every mask x of U.

        Each mask adds its lowest element to the rest: one more value in the
        image, one more element counted in that value's fiber.  The counts
        |F_v ∩ x| ride in one int, n.bit_length() bits per fiber.
        """
        table, n = self.table, self.n
        sizes = tuple(f.bit_count() for f in self.fibers)
        memo = _CONTRIBUTIONS.setdefault(sizes, {})
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

    def image_relation(self, rgs) -> _Relation:
        """The image relation f(R) of the partition rgs."""
        packed = 0
        contributions = self.contributions
        for block in self.sizes.blocks[rgs]:
            packed |= contributions[block]
        hit = self._relations.get(packed)
        if hit is None:
            hit = self._relations[packed] = _Relation(self.kern, self.m, packed)
        return hit

    def relmap(self, rgs) -> _Relation:
        """image_relation(rgs), kept for the pair claims, which read each
        partition's image once per second partition."""
        hit = self._relmap.get(rgs)
        if hit is None:
            hit = self._relmap[rgs] = self.image_relation(rgs)
        return hit

    def fiber_ok(self, rgs) -> bool:
        """True when every fiber of f lies inside one block of rgs."""
        hit = self._fiber_ok.get(rgs)
        if hit is None:
            hit = self.kern.fiber_condition(rgs, self.table, self.fibers)
            self._fiber_ok[rgs] = hit
        return hit

    def approx(self, rgs):
        """(lo_U, hi_U, lo_V, hi_V) for the partition rgs, or None when f(R)
        is not an equivalence.

        lo_U[x], hi_U[x] are the approximations of a mask x of U over R;
        lo_V[y], hi_V[y] those of a mask y of V over f(R).
        """
        hit = self._approx.get(rgs, _TODO)
        if hit is _TODO:
            vrgs = self.image_relation(rgs).rgs
            hit = None if vrgs is None else self.sizes.approx(rgs) + _size_tables(self.m).approx(vrgs)
            self._approx[rgs] = hit
        return hit


# --------------------------------------------------------------- evaluators
#
# Each evaluator takes (ctx, rgs1, rgs2, xmask) and returns a Verdict.
# rgs2/xmask are None when the claim shape does not use them.  Verdicts
# without a witness are shared constants; a witness is built only on failure.

_HOLDS = Verdict(Outcome.HOLDS)
_VACUOUS = Verdict(Outcome.VACUOUS)
_ILL_UNION = Verdict(Outcome.ILL_TYPED, reason="union-not-equivalence")
_ILL_DIFFERENCE = Verdict(Outcome.ILL_TYPED, reason="difference-not-reflexive")
_ILL_RELMAP = Verdict(Outcome.ILL_TYPED, reason="relmap-not-equivalence")


def _fails(witness: dict) -> Verdict:
    return Verdict(Outcome.FAILS, witness=witness)


def _eval_t31(ctx, rgs1, rgs2, xmask):
    rel = ctx.image_relation(rgs1)
    if rel.flags == kernels.EQUIVALENCE:
        return _HOLDS
    return _fails(not_equivalence(rel.packed, ctx.m))


def _eval_t31_refl(ctx, rgs1, rgs2, xmask):
    rel = ctx.image_relation(rgs1)
    m = ctx.m
    reflexive = bool(rel.flags & kernels.REFLEXIVE)
    if reflexive == ctx.surjective:
        return _HOLDS
    if ctx.surjective:
        v = next(v for v in range(m) if not (rel.packed >> v * (m + 1)) & 1)
    else:
        v = next(v for v in range(m) if ctx.fibers[v] == 0)
    return _fails(
        {
            "kind": "reflexivity-mismatch",
            "surjective": ctx.surjective,
            "reflexive": reflexive,
            "element": v,
            "relation": pairs(rel.packed, m),
        }
    )


def _eval_l311_fwd(ctx, rgs1, rgs2, xmask):
    if not ctx.sizes.refines(rgs1, rgs2):
        return _VACUOUS
    left = ctx.relmap(rgs1)
    right = ctx.relmap(rgs2)
    if not left.packed & ~right.packed:
        return _HOLDS
    return _fails(relation_not_included("codomain", ctx.m, "f(R1)", left.packed, "f(R2)", right.packed))


def _eval_l311_bwd(ctx, rgs1, rgs2, xmask):
    if ctx.relmap(rgs1).packed & ~ctx.relmap(rgs2).packed:
        return _VACUOUS
    if ctx.sizes.refines(rgs1, rgs2):
        return _HOLDS
    packed = ctx.kern.partition_relation
    return _fails(relation_not_included("domain", ctx.n, "R1", packed(rgs1), "R2", packed(rgs2)))


def _eval_l312_inc(ctx, rgs1, rgs2, xmask):
    left = ctx.relmap(ctx.sizes.meet(rgs1, rgs2))
    right = ctx.relmap(rgs1).packed & ctx.relmap(rgs2).packed
    if not left.packed & ~right:
        return _HOLDS
    return _fails(
        relation_not_included("codomain", ctx.m, "f(R1 ∩ R2)", left.packed, "f(R1) ∩ f(R2)", right)
    )


def _eval_l312_eq(ctx, rgs1, rgs2, xmask):
    if not (ctx.fiber_ok(rgs1) and ctx.fiber_ok(rgs2)):
        return _VACUOUS
    left = ctx.relmap(ctx.sizes.meet(rgs1, rgs2))
    right = ctx.relmap(rgs1).packed & ctx.relmap(rgs2).packed
    if left.packed == right:
        return _HOLDS
    return _fails(
        relation_not_equal("codomain", ctx.m, "f(R1 ∩ R2)", left.packed, "f(R1) ∩ f(R2)", right)
    )


def _eval_l313_inc(ctx, rgs1, rgs2, xmask):
    union = ctx.sizes.union(rgs1, rgs2)
    if union is None:
        return _ILL_UNION
    left = ctx.relmap(union)
    right = ctx.relmap(rgs1).packed | ctx.relmap(rgs2).packed
    if not right & ~left.packed:
        return _HOLDS
    return _fails(
        relation_not_included("codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∪ R2)", left.packed)
    )


def _eval_l313_eq(ctx, rgs1, rgs2, xmask):
    union = ctx.sizes.union(rgs1, rgs2)
    if union is None:
        return _ILL_UNION
    if not (ctx.fiber_ok(rgs1) and ctx.fiber_ok(rgs2)):
        return _VACUOUS
    left = ctx.relmap(union)
    right = ctx.relmap(rgs1).packed | ctx.relmap(rgs2).packed
    if left.packed == right:
        return _HOLDS
    return _fails(
        relation_not_equal("codomain", ctx.m, "f(R1 ∪ R2)", left.packed, "f(R1) ∪ f(R2)", right)
    )


def _eval_l313_join(ctx, rgs1, rgs2, xmask):
    left = ctx.relmap(ctx.sizes.join(rgs1, rgs2))
    right = ctx.relmap(rgs1).packed | ctx.relmap(rgs2).packed
    if not right & ~left.packed:
        return _HOLDS
    return _fails(
        relation_not_included("codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∨ R2)", left.packed)
    )


def _eval_l32(ctx, rgs1, rgs2, xmask):
    # R1 and R2 are reflexive, so R1 - R2 always loses the whole diagonal
    # and can never be an equivalence; f(R1 - R2) is not formable.
    return _ILL_DIFFERENCE


def _eval_t41_1(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, _, lo_v, _ = tables
    images = ctx.images
    f_lo = images[lo_u[xmask]]
    lo_fx = lo_v[images[xmask]]
    if not (f_lo & ~lo_fx):
        return _HOLDS
    return _fails(subset_not_included("f(apr_R X)", f_lo, "apr_f(R) f(X)", lo_fx))


def _eval_t41_2(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    _, hi_u, _, hi_v = tables
    images = ctx.images
    f_hi = images[hi_u[xmask]]
    hi_fx = hi_v[images[xmask]]
    if not (hi_fx & ~f_hi):
        return _HOLDS
    return _fails(subset_not_included("apr̄_f(R) f(X)", hi_fx, "f(apr̄_R X)", f_hi))


def _eval_t42_1(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, _, lo_v, _ = tables
    images = ctx.images
    f_lo = images[lo_u[xmask]]
    lo_fx = lo_v[images[xmask]]
    if f_lo == lo_fx:
        return _HOLDS
    return _fails(subset_not_equal("f(apr_R X)", f_lo, "apr_f(R) f(X)", lo_fx))


def _eval_t42_2(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    _, hi_u, _, hi_v = tables
    images = ctx.images
    f_hi = images[hi_u[xmask]]
    hi_fx = hi_v[images[xmask]]
    if f_hi == hi_fx:
        return _HOLDS
    return _fails(subset_not_equal("f(apr̄_R X)", f_hi, "apr̄_f(R) f(X)", hi_fx))


def _eval_t43_1(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, hi_u, lo_v, _ = tables
    if not (lo_u[xmask] == xmask and hi_u[xmask] == xmask):
        return _VACUOUS
    fx = ctx.images[xmask]
    lo_fx = lo_v[fx]
    if lo_fx == fx:
        return _HOLDS
    return _fails(subset_not_equal("apr_f(R) f(X)", lo_fx, "f(X)", fx))


def _eval_t43_2(ctx, rgs1, rgs2, xmask):
    tables = ctx.approx(rgs1)
    if tables is None:
        return _ILL_RELMAP
    lo_u, hi_u, _, hi_v = tables
    if not (lo_u[xmask] == xmask and hi_u[xmask] == xmask):
        return _VACUOUS
    fx = ctx.images[xmask]
    hi_fx = hi_v[fx]
    if hi_fx == fx:
        return _HOLDS
    return _fails(subset_not_equal("apr̄_f(R) f(X)", hi_fx, "f(X)", fx))


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


def evaluate_raw(
    claim_id: str,
    ctx: GroupContext,
    rgs1: tuple[int, ...],
    rgs2: Optional[tuple[int, ...]] = None,
    xmask: Optional[int] = None,
) -> Verdict:
    """Evaluate on raw encodings; shape is the caller's responsibility."""
    return _EVALUATORS[claim_id](ctx, rgs1, rgs2, xmask)


def evaluate(claim: Union[str, Claim], inst: Instance) -> Verdict:
    """Verdict of a claim on an instance; raises BadInstance on shape mismatch."""
    claim = get_claim(claim)
    check_shape(claim, inst)
    ctx = GroupContext.for_map(inst.f)
    rgs1 = inst.partitions[0].rgs
    rgs2 = inst.partitions[1].rgs if len(inst.partitions) > 1 else None
    xmask = inst.x.mask if inst.x is not None else None
    return evaluate_raw(claim.id, ctx, rgs1, rgs2, xmask)

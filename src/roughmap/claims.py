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

from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import kernels
from .enumeration import iter_rgs
from .errors import BadInstanceError
from .mappings import SurjMap
from .structures import Partition, Subset
from .witnesses import (
    not_equivalence,
    reflexivity_mismatch,
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


class Verdict:
    # slots, not a namedtuple: a sweep reads `outcome` once per instance,
    # and a namedtuple field is the slower read
    __slots__ = ("outcome", "witness", "reason")

    def __init__(self, outcome: Outcome, witness: dict | None = None, reason: str | None = None):
        if outcome is Outcome.FAILS and witness is None:
            raise ValueError("Fails needs a witness")
        if outcome is Outcome.ILL_TYPED and reason is None:
            raise ValueError("IllTyped needs a reason")
        self.outcome, self.witness, self.reason = outcome, witness, reason


# partitions: 1 or 2; map_constraint: any | surjective | bijective;
# expected_status: refuted | proved | ill-typed | open; evaluator: the
# claim's per-instance function (see the evaluators below);
# fiber_hypothesis: the claim assumes the fiber condition ker f ≤ R, which
# its evaluator reads from the context's `_fiber_ok` slot
Claim = namedtuple(
    "Claim",
    "id statement partitions needs_subset map_constraint expected_status note evaluator fiber_hypothesis",
    defaults=("", None, False),
)


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


def _eval_t31_refl(ctx, h1, h2, xmask):
    rel = ctx.relmaps[h1]
    if bool(rel.flags & kernels.REFLEXIVE) == ctx.surjective:
        return _HOLDS
    return _Failure(reflexivity_mismatch, rel.packed, ctx.m, ctx.fibers)


def _eval_l311_fwd(ctx, h1, h2, xmask):
    if ctx.sizes.meet[h1][h2] != h1:
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
    if ctx.sizes.meet[h1][h2] == h1:
        return _HOLDS
    return _Failure(_partitions_not_included, ctx, h1, h2)


def _eval_l312_inc(ctx, h1, h2, xmask):
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.meet[h1][h2]].packed
    right = relmaps[h1].packed & relmaps[h2].packed
    if not left & ~right:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1 ∩ R2)", left, "f(R1) ∩ f(R2)", right)


def _eval_l312_eq(ctx, h1, h2, xmask):
    ok = ctx._fiber_ok
    if not (ok[h1] and ok[h2]):
        return _VACUOUS
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.meet[h1][h2]].packed
    right = relmaps[h1].packed & relmaps[h2].packed
    if left == right:
        return _HOLDS
    return _Failure(relation_not_equal, "codomain", ctx.m, "f(R1 ∩ R2)", left, "f(R1) ∩ f(R2)", right)


def _eval_l313_inc(ctx, h1, h2, xmask):
    union = ctx.sizes.union[h1][h2]
    if union is None:
        return _ILL_UNION
    relmaps = ctx.relmaps
    left = relmaps[union].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if not right & ~left:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∪ R2)", left)


def _eval_l313_eq(ctx, h1, h2, xmask):
    union = ctx.sizes.union[h1][h2]
    if union is None:
        return _ILL_UNION
    ok = ctx._fiber_ok
    if not (ok[h1] and ok[h2]):
        return _VACUOUS
    relmaps = ctx.relmaps
    left = relmaps[union].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if left == right:
        return _HOLDS
    return _Failure(relation_not_equal, "codomain", ctx.m, "f(R1 ∪ R2)", left, "f(R1) ∪ f(R2)", right)


def _eval_l313_join(ctx, h1, h2, xmask):
    relmaps = ctx.relmaps
    left = relmaps[ctx.sizes.join[h1][h2]].packed
    right = relmaps[h1].packed | relmaps[h2].packed
    if not right & ~left:
        return _HOLDS
    return _Failure(relation_not_included, "codomain", ctx.m, "f(R1) ∪ f(R2)", right, "f(R1 ∨ R2)", left)


def _eval_l32(ctx, h1, h2, xmask):
    # R1 and R2 are reflexive, so R1 - R2 always loses the whole diagonal
    # and can never be an equivalence; f(R1 - R2) is not formable.
    return _ILL_DIFFERENCE


def _eval_t41_1(ctx, h1, h2, xmask):
    tables = ctx._approx[h1]
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
    tables = ctx._approx[h1]
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
    tables = ctx._approx[h1]
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
    tables = ctx._approx[h1]
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
    tables = ctx._approx[h1]
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
    tables = ctx._approx[h1]
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


_OPEN_NOTE = "no established status; search results at bounded sizes are findings"

REGISTRY: dict[str, Claim] = {
    c.id: c
    for c in [
        Claim(
            "T31",
            "for surjective f and equivalence R, f(R) is an equivalence on V",
            1, False, "surjective", "open",
            "symmetry and reflexivity are established; transitivity is " + _OPEN_NOTE,
            evaluator=_eval_t31,
        ),
        Claim(
            "T31-refl",
            "f(R) is reflexive on V exactly when f is surjective",
            1, False, "any", "proved",
            evaluator=_eval_t31_refl,
        ),
        Claim(
            "L31-1-fwd",
            "R1 ⊆ R2 implies f(R1) ⊆ f(R2)",
            2, False, "surjective", "refuted",
            evaluator=_eval_l311_fwd,
        ),
        Claim(
            "L31-1-bwd",
            "f(R1) ⊆ f(R2) implies R1 ⊆ R2",
            2, False, "surjective", "refuted",
            evaluator=_eval_l311_bwd,
        ),
        Claim(
            "L31-2-inc",
            "f(R1 ∩ R2) ⊆ f(R1) ∩ f(R2)",
            2, False, "surjective", "refuted",
            evaluator=_eval_l312_inc,
        ),
        Claim(
            "L31-2-eq",
            "if [x]_f ⊆ [x]_R1 and [x]_f ⊆ [x]_R2 for all x, "
            "then f(R1 ∩ R2) = f(R1) ∩ f(R2)",
            2, False, "surjective", "open", _OPEN_NOTE,
            evaluator=_eval_l312_eq, fiber_hypothesis=True,
        ),
        Claim(
            "L31-3-inc",
            "f(R1 ∪ R2) ⊇ f(R1) ∪ f(R2); "
            "well-typed only when R1 ∪ R2 is an equivalence",
            2, False, "surjective", "refuted",
            evaluator=_eval_l313_inc,
        ),
        Claim(
            "L31-3-eq",
            "under the fiber condition of L31-2-eq, f(R1 ∪ R2) = "
            "f(R1) ∪ f(R2); well-typed only when R1 ∪ R2 is an equivalence",
            2, False, "surjective", "open", _OPEN_NOTE,
            evaluator=_eval_l313_eq, fiber_hypothesis=True,
        ),
        Claim(
            "L31-3-join",
            "f(R1 ∨ R2) ⊇ f(R1) ∪ f(R2), with ∨ the partition join",
            2, False, "surjective", "open", _OPEN_NOTE,
            evaluator=_eval_l313_join,
        ),
        Claim(
            "L32",
            "under the fiber condition, f(R1) - f(R2) = f(R1 - R2)",
            2, False, "surjective", "ill-typed",
            "R1 - R2 is never reflexive, so f cannot be applied to it",
            evaluator=_eval_l32,
        ),
        Claim(
            "T41-1",
            "f(apr_R X) ⊆ apr_f(R) f(X)",
            1, True, "surjective", "refuted",
            evaluator=_eval_t41_1,
        ),
        Claim(
            "T41-2",
            "f(apr̄_R X) ⊇ apr̄_f(R) f(X)",
            1, True, "surjective", "refuted",
            evaluator=_eval_t41_2,
        ),
        Claim(
            "T42-1",
            "for bijective f, f(apr_R X) = apr_f(R) f(X)",
            1, True, "bijective", "proved",
            evaluator=_eval_t42_1,
        ),
        Claim(
            "T42-2",
            "for bijective f, f(apr̄_R X) = apr̄_f(R) f(X)",
            1, True, "bijective", "proved",
            evaluator=_eval_t42_2,
        ),
        Claim(
            "T43-1",
            "for definable X (apr_R X = apr̄_R X = X), apr_f(R) f(X) = f(X)",
            1, True, "surjective", "refuted",
            evaluator=_eval_t43_1,
        ),
        Claim(
            "T43-2",
            "for definable X (apr_R X = apr̄_R X = X), apr̄_f(R) f(X) = f(X)",
            1, True, "surjective", "refuted",
            evaluator=_eval_t43_2,
        ),
    ]
}


def get_claim(claim: str | Claim) -> Claim:
    if isinstance(claim, Claim):
        return claim
    try:
        return REGISTRY[claim]
    except KeyError:
        raise BadInstanceError(f"unknown claim id {claim!r}") from None


def list_claims() -> list[Claim]:
    return list(REGISTRY.values())


class Instance(namedtuple("Instance", "f partitions x")):
    """Concrete data a claim is evaluated on."""

    __slots__ = ()

    def __new__(cls, f: SurjMap, partitions: tuple[Partition, ...], x: Subset | None = None):
        for p in partitions:
            if p.universe is not f.domain:
                raise BadInstanceError("partition not over the map's domain")
        if x is not None and x.universe is not f.domain:
            raise BadInstanceError("subset X not over the map's domain")
        return super().__new__(cls, f, partitions, x)


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
# R1 & R2, the join closure(R1 | R2), and the union R1 | R2 when that is an
# equivalence.  R1 ⊆ R2 when R1 ∧ R2 = R1, and the fiber condition when
# ker f ∧ R = ker f.
#
# Every per-size answer is a table read by subscript: approx[h] is the pair
# (lower, upper) of partition h, each indexed by subset mask, and
# meet[h1][h2], join[h1][h2] and union[h1][h2] name the resulting partition
# by its handle, a union that is no equivalence by None.  size_tables picks
# one of two forms per size.  Up to _TABLE_MAX_N elements, _SizeTables: a
# handle is the relation's index into `relations`, and each table fills a
# whole row once and keeps it.  Above it, _DirectTables: a handle is the
# relation itself, and each entry is computed when it is read.  On both,
# `index` maps a partition's relation to its handle, and `handle` and `rgs`
# convert at the boundary.
# f(R) is the OR of kernels.contribution over R's blocks, packed on V.
# Every memo of the engine lives on the tables of the size its key names,
# which size_tables keeps one per size, so size_tables.cache_clear() gives
# a fresh engine; a single evaluate() builds its own and leaves no state.
#
# On the stored form every read an evaluator makes per instance is a
# subscript of an exact list (or of a tuple, for an approximation row):
# 3.11 specializes those, about 5 ns a read, where a _Cached subscript, a
# dict subclass, costs about 31 ns and a method call about 40 ns (timeit
# net of its loop, Python 3.11.7 on a 2-vCPU VM).  So the
# pair tables are lists of rows (a row not filled yet is a _Row).  A context
# is built for one claim, and the slots that claim reads (approximation
# rows, the fiber condition) are filled before it is evaluated, so an
# evaluator reads them as plain values.  _Cached and _Computed stay for the
# reads made once per context or per group, and for the direct form.

# at 7 elements a pair table, filled, is B(7) = 877 list rows of B(7)
# entries, 769,129 in all (about 6 MB); at 8 it would be B(8)**2 = 17,139,600
_TABLE_MAX_N = 7


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


class _Row:
    """Row i of a stored pair table, not filled yet: its first entry read
    puts the whole row, fill(i), into the table in its place, once."""

    __slots__ = ("table", "i", "fill")

    def __init__(self, table: list, i: int, fill):
        self.table, self.i, self.fill = table, i, fill

    def __getitem__(self, j):
        row = self.table[self.i]
        if row is self:  # a caller may hold on to this placeholder
            row = self.table[self.i] = self.fill(self.i)
        return row[j]


class _Relation:
    """A packed relation on V and its classification flags."""

    __slots__ = ("packed", "flags")

    def __init__(self, m: int, packed: int):
        self.packed = packed
        self.flags = kernels.classify(packed, m)


def _listed_relations(n: int) -> list:
    """The relation of every partition of n elements, in lex order of the rgs."""
    return [kernels.partition_relation(rgs) for rgs in iter_rgs(n)]


class _DirectTables:
    """The per-size tables, each entry computed by the kernels when it is
    read; a partition's handle is its packed relation, so `relations` and
    `index` map a handle to itself.

    Nothing is kept per group: a search group reads each (partition,
    subset) approximation once, so keeping them would hold up to
    2·B(n)·2**n masks per group and reuse none.  What every group reads is
    kept for as long as the tables: the partitions, listed on the first
    `handles()`, their block masks (`blocks`) and the relations on V met so
    far with their classification (`classified`).
    """

    def __init__(self, n: int):
        self.n = n
        self.relations = self.index = _Computed(lambda r: r)
        blocks = self.blocks = _Cached(lambda r: kernels.relation_blocks(r, n))
        self.classified = {}
        self._listed = None

        def approx(r):
            rblocks = blocks[r]
            lower = _Computed(lambda x: kernels.lower_upper_masks(rblocks, x)[0])
            return lower, _Computed(lambda x: kernels.lower_upper_masks(rblocks, x)[1])

        def equivalence(r):
            # R1 ∪ R2 is reflexive and symmetric, so an equivalence exactly
            # when it is its own closure, the join
            return r if kernels.closure(r, n) == r else None

        self.approx = _Computed(approx)
        self.meet = _Computed(lambda r1: _Computed(r1.__and__))
        self.join = _Computed(lambda r1: _Computed(lambda r2: kernels.closure(r1 | r2, n)))
        self.union = _Computed(lambda r1: _Computed(lambda r2: equivalence(r1 | r2)))

    def handle(self, rgs):
        return self.index[kernels.partition_relation(rgs)]

    def rgs(self, h) -> tuple:
        return kernels.relation_rgs(self.relations[h], self.n)

    def handles(self) -> list:  # in lex order
        if self._listed is None:
            self._listed = _listed_relations(self.n)
        return self._listed


class _SizeTables:
    """The per-size tables of _DirectTables, stored: each fills a whole row
    once and keeps it.  A partition's handle is its relation's index into
    `relations`, the partitions in lex order.

    `blocks` lists each partition's block masks.  An approximation row holds
    2**n masks each way, and a pair operation's row one entry per second
    partition, so at most B(n)**2 entries per operation.  A pair entry is
    the handle of the resulting relation, so a union that is no partition's
    relation, no equivalence, reads None.  The meet and union rows are & and
    | on the packed relations (`_row`); the join rows merge block masks,
    which at 7 elements fills a row about 7 times faster than
    closure(R1 | R2).

    An evaluator reads a pair entry once per instance, so `meet`, `join` and
    `union` are exact lists, one row per first partition: each row starts as
    a _Row, which fills it on its first entry read, and then
    sizes.meet[h1][h2] is two list subscripts.  `approx` is read once per
    context and partition, so it stays a _Cached, filled on its first read.

    GroupContext's memos on U live here: `maps`, what it builds per map
    (fibers, surjectivity, images, contributions and f(R) of every
    partition), keyed by (|V|, table), since a table into fewer values than
    |V| has other fibers, contributions and f(R) for each |V|; and
    `block_contributions`, keyed by fiber sizes, then by a block's
    per-fiber counts packed into one int, count_width bits each; both
    levels fill themselves, the second with kernels.contribution.  As on
    _DirectTables, `classified` keeps the relations on V of this size met
    so far, with their classification.  Like the pair rows, `maps` is kept
    for as long as the tables, so the claims of one process share it: it
    holds one entry per (|V|, canonical table) a sweep meets, at 7 elements
    at most 877 for surjections and 3,753 for every map into |V| ≤ 7.
    """

    def __init__(self, n: int):
        self.n = n
        self.relations = _listed_relations(n)
        self.index = {r: i for i, r in enumerate(self.relations)}
        self.blocks = [kernels.relation_blocks(r, n) for r in self.relations]
        self._by_blocks = None  # partition's set of block masks -> handle, for the join rows
        self.maps = {}
        self.count_width = n.bit_length()  # bits per fiber of a block's packed counts
        self.block_contributions = _Cached(self._contributions_of)
        self.classified = {}

        def approx(i):
            blocks = self.blocks[i]
            return tuple(zip(*[kernels.lower_upper_masks(blocks, x) for x in range(1 << n)]))

        self.approx = _Cached(approx)
        self.meet = self._pair_table(lambda i: self._row(int.__and__, i))
        self.join = self._pair_table(self._join_row)
        self.union = self._pair_table(lambda i: self._row(int.__or__, i))

    handle, rgs = _DirectTables.handle, _DirectTables.rgs

    def handles(self) -> range:
        return range(len(self.relations))

    def _pair_table(self, fill) -> list:
        """A pair table whose row i is fill(i), each row filled on its first entry read."""
        table = []  # each _Row holds the list it fills in
        table += [_Row(table, i, fill) for i in self.handles()]
        return table

    def _row(self, op, i: int) -> list:
        """Row i of a pair operation: op on partition i's relation and each
        partition's in turn, each result named by its handle."""
        first, handle = self.relations[i], self.index.get
        return [handle(op(first, r)) for r in self.relations]

    def _join_row(self, i: int) -> list:
        """Row i of the join, by merging blocks: each block of partition j
        that meets several blocks of the running merge, which starts as
        partition i's, joins them into one.  The merged blocks are the
        join's, and their set names its handle."""
        by_blocks = self._by_blocks
        if by_blocks is None:
            by_blocks = self._by_blocks = {frozenset(b): h for h, b in enumerate(self.blocks)}
        first = self.blocks[i]
        row = []
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

    def _contributions_of(self, sizes: tuple) -> _Cached:
        """The block contributions of a map with these fiber sizes, keyed
        by a block's per-fiber counts, packed count_width bits each."""
        width = self.count_width
        full = (1 << width) - 1
        return _Cached(
            lambda counts: kernels.contribution(
                sizes, {v: c for v in range(len(sizes)) if (c := counts >> v * width & full)}
            )
        )


@lru_cache(maxsize=None)
def size_tables(n: int):
    """Approximation and partition-pair tables for a sweep over size n, one
    object per size for the process: every memo of the engine hangs off it."""
    return _SizeTables(n) if n <= _TABLE_MAX_N else _DirectTables(n)


class GroupContext:
    """Shared per-(n, m, table) computations for one batch of instances of
    one claim.

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
    one table share them: `sizes.maps` keeps them by (|V|, table), with
    the map's `fibers` and `surjective`, for as long as `sizes` lives, so
    later groups and later claims of the process on that map take all five
    from it and build nothing.  They are built as list operations
    (`_build`): images and contributions double once per element of U, and
    f(R) of every partition comes from one pass over the partitions' block
    masks, the helper `relmap(h)` calls for one.  A verify sweep builds
    every group's context on its table's canonical form, so groups whose
    tables differ only by a relabeling of V share these tables (see
    `search`).

    A context is built for one claim, and the slots that claim reads are
    filled here, before it is evaluated, for the partition handles it will
    be evaluated on: `_approx[h]`, the rows (lo_U, hi_U, lo_V, hi_V) of
    partition h, or None when f(R) is not an equivalence, for every subset
    claim (needs_subset), and `_fiber_ok[h]`, whether ker f ≤ h, for
    every claim with a fiber_hypothesis.  A claim that reads neither gets
    neither.  lo_U[x], hi_U[x] approximate a mask x of U over R; lo_V[y],
    hi_V[y] a mask y of V over f(R).  On _SizeTables the slots are exact
    lists over every handle of `sizes`; on _DirectTables dicts over the
    handles passed.  They stay per context: shared, they would keep every
    map's rows filled at once.  A built context is never written again.
    The memos a context fills belong to the size tables and live as long as
    they do: `sizes.maps` and `sizes.block_contributions` on U,
    `vsizes.classified` on V.
    """

    __slots__ = (
        "n", "m", "table", "fibers", "surjective", "sizes", "vsizes", "images",
        "contributions", "relmaps", "_fiber_ok", "_approx",
    )

    def __init__(self, sizes, vsizes, table: tuple[int, ...], claim: Claim, handles):
        self.sizes, self.vsizes = sizes, vsizes
        self.n = n = sizes.n
        self.m = m = vsizes.n
        self.table = table = tuple(table)
        if type(sizes) is _SizeTables:
            hit = sizes.maps.get((m, table))
            if hit is None:
                hit = sizes.maps[m, table] = self._build()
            self.fibers, self.surjective, self.images, self.contributions, self.relmaps = hit
            handles, slots = sizes.handles(), list  # exact lists over every handle
        else:
            fibers = self.fibers = kernels.fiber_masks(table, m)
            self.surjective = all(fibers)
            fiber_sizes = [f.bit_count() for f in fibers]
            self.images = _Cached(lambda x: kernels.image_mask(table, x))
            self.contributions = _Cached(
                lambda block: kernels.contribution(fiber_sizes, kernels.fiber_counts(table, block))
            )
            self.relmaps = _Cached(self.relmap)
            slots = lambda values: dict(zip(handles, values))
        if claim.needs_subset:
            relmaps, approx, vapprox, vindex = self.relmaps, sizes.approx, vsizes.approx, vsizes.index
            rows = []
            for h in handles:
                rel = relmaps[h]
                rows.append(approx[h] + vapprox[vindex[rel.packed]] if rel.flags == kernels.EQUIVALENCE else None)
            self._approx = slots(rows)
        if claim.fiber_hypothesis:
            # ker f ≤ h exactly when ker f ∧ h = ker f
            ker = sizes.index[kernels.partition_relation(table)]
            meet = sizes.meet[ker]
            self._fiber_ok = slots([meet[h] == ker for h in handles])

    def _build(self) -> tuple:
        """The map's entry of `sizes.maps`: its fibers, whether it is
        surjective, images[x] = f(x) and contributions[x] for every mask x
        of U, and f(R) of every partition, in handle order.

        The masks double once per element i: the masks with i are those
        without it plus i, so their images add the value f(i) and their
        counts |F_v ∩ x| one element of the fiber of f(i).  The counts ride
        in one int, sizes.count_width bits per fiber, which keys the block
        contributions of the fiber sizes.
        """
        table, sizes = self.table, self.sizes
        fibers = kernels.fiber_masks(table, self.m)
        width = sizes.count_width
        images, counts = [0], [0]
        for v in table:
            bit, one = 1 << v, 1 << v * width
            images += [y | bit for y in images]
            counts += [c + one for c in counts]
        memo = sizes.block_contributions[tuple(f.bit_count() for f in fibers)]
        contributions = list(map(memo.__getitem__, counts))
        return fibers, all(fibers), images, contributions, self._relmaps(contributions, sizes.blocks)

    def _relmaps(self, contributions, partitions) -> list:
        """f(R) of each partition, given by its block masks: the OR of its
        blocks' contributions, classified once per relation on V."""
        relations, m = self.vsizes.classified, self.m
        out = []
        for blocks in partitions:
            packed = 0
            for block in blocks:
                packed |= contributions[block]
            hit = relations.get(packed)
            if hit is None:
                hit = relations[packed] = _Relation(m, packed)
            out.append(hit)
        return out

    def relmap(self, h) -> _Relation:
        """The image relation f(R) of the partition h, computed (`relmaps` keeps it)."""
        return self._relmaps(self.contributions, (self.sizes.blocks[h],))[0]


def evaluate_raw(claim_id: str, ctx: GroupContext, h1, h2=None, xmask: int | None = None):
    """Evaluate on raw encodings, partitions as handles of ctx.sizes; shape
    is the caller's responsibility.  A failure comes back as a _Failure.

    It serves the tests and a traced sweep; an untraced sweep and
    evaluate() call the claim record's evaluator directly."""
    return REGISTRY[claim_id].evaluator(ctx, h1, h2, xmask)


def evaluate(claim: str | Claim, inst: Instance) -> Verdict:
    """Verdict of a claim on an instance; raises BadInstance on shape mismatch."""
    claim = get_claim(claim)
    if claim.evaluator is None:
        raise BadInstanceError(f"{claim.id} names no evaluator")
    check_shape(claim, inst)
    sizes = _DirectTables(inst.f.domain.size)
    handles = [sizes.handle(p.rgs) for p in inst.partitions]
    ctx = GroupContext(sizes, _DirectTables(inst.f.codomain.size), inst.f.table, claim, handles)
    h1, h2 = (*handles, None)[:2]
    verdict = claim.evaluator(ctx, h1, h2, inst.x.mask if inst.x is not None else None)
    return Verdict(Outcome.FAILS, witness=verdict.witness) if verdict.outcome is Outcome.FAILS else verdict

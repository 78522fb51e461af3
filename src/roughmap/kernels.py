"""Bitmask kernels for partitions, relations and maps on small universes.

Conventions:

* elements of a universe of size n are 0..n-1;
* a subset of the universe is an int whose bit i is element i;
* a partition is a restricted-growth string `rgs` (tuple of ints,
  rgs[0] == 0 and rgs[i] <= 1 + max(rgs[:i])), block ids 0..nblocks-1;
* a binary relation over a size-m universe is a tuple `rows` of m ints,
  bit j of rows[i] meaning the pair (i, j), or one `packed` int with the
  pair (v, w) at bit v*m + w;
* a map U -> V is a tuple `table` of images, plus its precomputed
  `fibers` (tuple of m preimage masks).

Python ints are unbounded, so every kernel works for any n.
"""

import sys
from math import gcd

# name of the kernel implementation, recorded in benchmark results
BACKEND = "python"

REFLEXIVE = 1
SYMMETRIC = 2
TRANSITIVE = 4
EQUIVALENCE = REFLEXIVE | SYMMETRIC | TRANSITIVE


def fiber_masks(table, m):
    """Preimage mask of every codomain element, as a length-m tuple."""
    fibers = [0] * m
    for i, v in enumerate(table):
        fibers[v] |= 1 << i
    return tuple(fibers)


def block_masks(rgs):
    """Mask of every block of a partition, indexed by block id."""
    nblocks = max(rgs) + 1
    blocks = [0] * nblocks
    for i, b in enumerate(rgs):
        blocks[b] |= 1 << i
    return tuple(blocks)


def partition_rows(rgs):
    """The equivalence relation of a partition: rows[i] is the block of i."""
    blocks = block_masks(rgs)
    return tuple(blocks[b] for b in rgs)


def rows_to_rgs(rows):
    """Canonical rgs of an equivalence relation given as rows.

    Assumes `rows` already is an equivalence; block ids are assigned in
    order of each block's least element.
    """
    n = len(rows)
    rgs = [-1] * n
    nxt = 0
    for i in range(n):
        if rgs[i] < 0:
            row = rows[i]
            j = 0
            while row:
                if row & 1:
                    rgs[j] = nxt
                row >>= 1
                j += 1
            nxt += 1
    return tuple(rgs)


def classify_rows(rows):
    """Reflexive/symmetric/transitive flags of a relation, as an int."""
    m = len(rows)
    flags = REFLEXIVE | SYMMETRIC | TRANSITIVE
    for i in range(m):
        if not (rows[i] >> i) & 1:
            flags &= ~REFLEXIVE
            break
    for i in range(m):
        ri = rows[i]
        for j in range(i + 1, m):
            if ((ri >> j) & 1) != ((rows[j] >> i) & 1):
                flags &= ~SYMMETRIC
                break
        else:
            continue
        break
    for i in range(m):
        ri = rows[i]
        row = ri
        j = 0
        while row:
            if (row & 1) and rows[j] & ~ri:
                flags &= ~TRANSITIVE
                break
            row >>= 1
            j += 1
        else:
            continue
        break
    return flags


def closure_rows(rows):
    """Transitive closure (Warshall over bit rows)."""
    out = list(rows)
    m = len(out)
    for k in range(m):
        rk = out[k]
        bit = 1 << k
        for i in range(m):
            if out[i] & bit:
                out[i] |= rk
    return tuple(out)


def fiber_counts(fibers, block):
    """|F_v ∩ B| of a block mask B for every fiber F_v."""
    return [(f & block).bit_count() for f in fibers]


def contribution(sizes, counts) -> int:
    """Packed pairs a block B adds to f(R), from the fiber sizes |F_v| and
    the counts |F_v ∩ B|.

    f(R) is the union over R's blocks B of a contribution that depends only
    on B and the map: the pairs (v, w) of values whose fibers B meets and
    cuts in equal fractions |F_v ∩ B|/|F_v| = |F_w ∩ B|/|F_w|.  A relation
    on V is one packed int, so f(R) is an OR of contributions.
    """
    m = len(sizes)
    classes: dict = {}  # equal fractions -> mask of their values
    for v, c in enumerate(counts):
        if c:
            g = gcd(c, sizes[v])
            key = (c // g, sizes[v] // g)
            classes[key] = classes.get(key, 0) | 1 << v
    out = 0
    for values in classes.values():
        for v in range(m):
            if (values >> v) & 1:
                out |= values << v * m
    return out


def unpack_rows(packed: int, m: int) -> tuple[int, ...]:
    """The rows of a packed relation on a universe of size m."""
    full = (1 << m) - 1
    return tuple((packed >> v * m) & full for v in range(m))


def meet_rgs(rgs1, rgs2):
    """Common refinement: blocks are the nonempty pairwise intersections."""
    seen = {}
    out = []
    for a, b in zip(rgs1, rgs2):
        key = (a, b)
        if key not in seen:
            seen[key] = len(seen)
        out.append(seen[key])
    return tuple(out)


def join_rgs(rgs1, rgs2):
    """Finest common coarsening: union-find over both block structures."""
    n = len(rgs1)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first1 = {}
    first2 = {}
    for i in range(n):
        for first, b in ((first1, rgs1[i]), (first2, rgs2[i])):
            if b in first:
                ra, rb = find(first[b]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[b] = i
    seen = {}
    out = []
    for i in range(n):
        r = find(i)
        if r not in seen:
            seen[r] = len(seen)
        out.append(seen[r])
    return tuple(out)


def refines_rgs(rgs1, rgs2):
    """True when every block of rgs1 sits inside one block of rgs2."""
    image = {}
    for a, b in zip(rgs1, rgs2):
        if image.setdefault(a, b) != b:
            return False
    return True


def fiber_condition(rgs, table, fibers):
    """True when every fiber is contained in its element's block."""
    blocks = block_masks(rgs)
    for x in range(len(rgs)):
        if fibers[table[x]] & ~blocks[rgs[x]]:
            return False
    return True


def lower_upper_masks(blocks, xmask):
    """Lower and upper approximations of a subset over explicit block masks."""
    lo = 0
    up = 0
    for b in blocks:
        if not (b & ~xmask):
            lo |= b
        if b & xmask:
            up |= b
    return lo, up


def image_mask(table, xmask):
    """Forward image of a subset mask under a map table."""
    out = 0
    i = 0
    while xmask:
        if xmask & 1:
            out |= 1 << table[i]
        xmask >>= 1
        i += 1
    return out


def select(n: int, m: int | None = None):
    """The kernel module for a universe of size n (codomain size m).

    Returns this module.  The engine fetches its kernels through this call
    (`claims.GroupContext`, `claims._DirectTables`), so the per-layer
    benchmark trace (`perfbench/tracing.py`) can wrap it to count and time
    kernel calls; the public API calls the kernels directly.
    """
    return _this


_this = sys.modules[__name__]

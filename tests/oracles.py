"""Slow reference implementations used to pin expected values.

Everything here works on plain sets, dicts and Fractions instead of bit
masks, so results are independent of the kernels under test.  Counting
functions use different formulas than the library (binomial convolution
for Bell, inclusion-exclusion for surjections).
"""

from fractions import Fraction
from itertools import permutations
from math import comb


def set_partitions(n):
    """All partitions of range(n) as frozensets of frozensets."""
    if n == 0:
        yield frozenset()
        return
    for rest in set_partitions(n - 1):
        x = n - 1
        yield rest | {frozenset([x])}
        for block in rest:
            yield (rest - {block}) | {block | {x}}


def blocks_of_rgs(rgs):
    """Convert an rgs tuple to the frozenset-of-frozensets form."""
    by_id = {}
    for i, b in enumerate(rgs):
        by_id.setdefault(b, set()).add(i)
    return frozenset(frozenset(s) for s in by_id.values())


def block_of(blocks, x):
    for b in blocks:
        if x in b:
            return b
    raise LookupError(x)


def naive_degrees(table, blocks):
    """Degree of each domain element: |fiber & block| / |fiber|."""
    out = {}
    for x in range(len(table)):
        fiber = {i for i, v in enumerate(table) if v == table[x]}
        blk = block_of(blocks, x)
        out[x] = Fraction(len(fiber & blk), len(fiber))
    return out


def naive_relmap(table, m, blocks):
    """Image relation as a set of codomain pairs."""
    deg = naive_degrees(table, blocks)
    pairs = set()
    n = len(table)
    for x in range(n):
        for y in range(n):
            if block_of(blocks, x) == block_of(blocks, y) and deg[x] == deg[y]:
                pairs.add((table[x], table[y]))
    return pairs


def naive_classify(pairs, size):
    """(reflexive, symmetric, transitive) of a pair-set relation."""
    refl = all((i, i) in pairs for i in range(size))
    sym = all((b, a) in pairs for a, b in pairs)
    trans = all(
        (a, d) in pairs for a, b in pairs for c, d in pairs if b == c
    )
    return refl, sym, trans


def naive_closure(pairs):
    """Transitive closure by iterating to a fixpoint."""
    out = set(pairs)
    while True:
        extra = {(a, d) for a, b in out for c, d in out if b == c} - out
        if not extra:
            return out
        out |= extra


def naive_lower_upper(blocks, xs):
    lo = set()
    up = set()
    for b in blocks:
        if b <= xs:
            lo |= b
        if b & xs:
            up |= b
    return lo, up


def naive_meet(blocks1, blocks2):
    out = set()
    for a in blocks1:
        for b in blocks2:
            if a & b:
                out.add(frozenset(a & b))
    return frozenset(out)


def naive_join(blocks1, blocks2):
    """Merge overlapping blocks until nothing merges any more."""
    work = [set(b) for b in blocks1] + [set(b) for b in blocks2]
    merged = True
    while merged:
        merged = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if work[i] & work[j]:
                    work[i] |= work.pop(j)
                    merged = True
                    break
            if merged:
                break
    return frozenset(frozenset(b) for b in work)


def naive_refines(blocks1, blocks2):
    return all(any(a <= b for b in blocks2) for a in blocks1)


def bell_binomial(n):
    """Bell numbers via the binomial convolution B(n+1) = sum C(n,k) B(k)."""
    bells = [1]
    for i in range(n):
        bells.append(sum(comb(i, k) * bells[k] for k in range(i + 1)))
    return bells[n]


def surj_ie(n, m):
    """Surjection count by inclusion-exclusion."""
    return sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))


def stirling_ie(n, m):
    from math import factorial

    return surj_ie(n, m) // factorial(m)


def orbit_minima(tables, m):
    """Lexicographic minimum of each codomain-relabeling orbit."""
    out = set()
    for t in tables:
        best = min(tuple(p[v] for v in t) for p in permutations(range(m)))
        out.add(best)
    return out


def is_canonical_table(table):
    """True when values first appear in the order 0, 1, 2, ..."""
    return list(dict.fromkeys(table)) == list(range(len(set(table))))


def relabel_orbit(table, m):
    """Every relabeling of one table (set of tuples)."""
    return {tuple(p[v] for v in table) for p in permutations(range(m))}


def naive_union(blocks1, blocks2, n):
    """Blocks of R1 ∪ R2 when that union is an equivalence, else None.

    The union is reflexive and symmetric; it is transitive exactly when
    every element related to a relates to nothing a does not relate to.
    """
    related = {a: block_of(blocks1, a) | block_of(blocks2, a) for a in range(n)}
    if any(not related[b] <= related[a] for a in range(n) for b in related[a]):
        return None
    return frozenset(frozenset(s) for s in related.values())


def integer_partitions(n, m, largest=None):
    """The partitions of n into exactly m positive parts, each a
    non-increasing tuple."""
    if largest is None:
        largest = n
    if m == 0:
        if n == 0:
            yield ()
        return
    for first in range(min(n - m + 1, largest), 0, -1):
        for rest in integer_partitions(n - first, m - 1, first):
            yield (first,) + rest


def map_types(n, m, ks):
    """(table, weight) of each type of map from n elements into m values
    that uses k of them, for each k in ks.

    A claim's verdict is kept by relabeling U and V, so each map with fiber
    sizes λ = (λ1, ..., λk) stands for all of its type: n!/∏λi! ways to
    fill fibers of those sizes in one order of the values, times
    m!/((m−k)! ∏ mult_j!) ways to give the k sizes distinct values of V
    (mult_j the number of parts of size j).  The representative is the
    sorted table, on the values 0..k−1.
    """
    from collections import Counter
    from math import factorial, prod

    for k in ks:
        for sizes in integer_partitions(n, k):
            weight = factorial(n) // prod(factorial(s) for s in sizes)
            weight *= factorial(m) // (factorial(m - k) * prod(factorial(c) for c in Counter(sizes).values()))
            yield tuple(v for v, s in enumerate(sizes) for _ in range(s)), weight


def naive_t31_tally(max_u, max_v):
    """(holds, fails) of T31 over every surjection and partition, by map type."""
    holds = fails = 0
    for n in range(1, max_u + 1):
        partitions = list(set_partitions(n))
        for m in range(1, min(n, max_v) + 1):
            for table, weight in map_types(n, m, [m]):
                for blocks in partitions:
                    if all(naive_classify(naive_relmap(table, m, blocks), m)):
                        holds += weight
                    else:
                        fails += weight
    return holds, fails


def naive_t31_refl_tally(max_u, max_v):
    """(holds, fails) of T31-refl over every map and partition, by map type:
    f(R) is reflexive on V exactly when f is onto V."""
    holds = fails = 0
    for n in range(1, max_u + 1):
        partitions = list(set_partitions(n))
        for m in range(1, max_v + 1):
            for table, weight in map_types(n, m, range(1, min(n, m) + 1)):
                surjective = len(set(table)) == m
                for blocks in partitions:
                    pairs = naive_relmap(table, m, blocks)
                    if all((v, v) in pairs for v in range(m)) == surjective:
                        holds += weight
                    else:
                        fails += weight
    return holds, fails


def naive_t42_tally(upper, max_u, max_v):
    """(holds, fails, ill_typed) of T42-1 (f(apr_R X) = apr_f(R) f(X)), or
    of T42-2 with upper (the upper approximations), over every bijection,
    partition and subset, by map type: the bijections onto n values are one
    type, λ = 1ⁿ, of weight n!.  A partition whose f(R) is no equivalence
    is ill-typed for all its subsets."""
    holds = fails = ill_typed = 0
    for n in range(1, min(max_u, max_v) + 1):
        for table, weight in map_types(n, n, [n]):
            for blocks in set_partitions(n):
                pairs = naive_relmap(table, n, blocks)
                if not all(naive_classify(pairs, n)):
                    ill_typed += weight << n
                    continue
                vblocks = frozenset(frozenset(w for v, w in pairs if v == u) for u in range(n))
                for mask in range(1 << n):
                    xs = {x for x in range(n) if mask >> x & 1}
                    image = {table[x] for x in xs}
                    of_u = naive_lower_upper(blocks, xs)[upper]
                    of_v = naive_lower_upper(vblocks, image)[upper]
                    if {table[x] for x in of_u} == of_v:
                        holds += weight
                    else:
                        fails += weight
    return holds, fails, ill_typed

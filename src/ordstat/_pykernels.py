"""Pure-Python selection kernels.

Reference implementation of the elimination recursion; ordstat._ckernels,
a C extension, is the compiled twin and must match these counters and
return values exactly, for every sequence length.
All three entry points take an already-validated sequence of finite floats
and a 1-based rank. Counter semantics, shared by both backends, are what
the memoized recursion would count:

  * recursive_calls  counts every entry into the recursion,
  * base_case_calls  counts rank-1 entries that compute a minimum,
  * memo_hits        counts entries answered from the cache.

select_memo runs no recursion: it fills the survivor sets level by level
(see _fill_levels) and reads the three counters off the level sizes.
"""

from itertools import combinations


def _fill_levels(n, rank, leaf, fold):
    """Evaluate the rank-`rank` elimination recursion over positions
    0..n-1 bottom-up, deepest level first. Returns (root, sizes), where
    sizes lists the number of survivor sets per level, deepest first.

    With R = n - rank + 2, elimination always takes one of the first R
    survivors, so after t removals the survivors are the positions from
    p = R + t - 1 on plus R - 1 positions kept in range(p). A state is the
    bitmask S of those kept positions, and every (R - 1)-subset of range(p)
    is reachable. Its children, in elimination order, are S - {s} + {p}
    for each s in S ascending, then S itself. The deepest level (p = n)
    maps each S to leaf(S), S as an ascending tuple of positions; every
    other level maps S to fold(children in elimination order). Only two
    levels are alive at any time.
    """
    keep = n - rank + 1
    bit = [1 << i for i in range(n)]
    level = {}
    for S in combinations(range(n), keep):
        level[sum([bit[i] for i in S])] = leaf(S)
    sizes = [len(level)]
    for p in range(n - 1, keep - 1, -1):
        top = bit[p]
        above = {}
        for S in combinations(range(p), keep):
            mask = sum([bit[i] for i in S])
            kids = [level[mask ^ bit[s] | top] for s in S]
            kids.append(level[mask])
            above[mask] = fold(kids)
        level = above
        sizes.append(len(level))
    (root,) = level.values()
    return root, sizes


def select_naive(values, rank):
    """Plain recursion. Returns (value, recursive_calls, base_case_calls)."""
    counters = [0, 0]

    def go(xs, m):
        counters[0] += 1
        if m == 1:
            counters[1] += 1
            return min(xs)
        hi = len(xs) - m + 2
        return max(go(xs[:j] + xs[j + 1:], m - 1) for j in range(hi))

    value = go(tuple(values), rank)
    return value, counters[0], counters[1]


def select_memo(values, rank):
    """The recursion memoized on the set of surviving original positions,
    filled level by level. Each survivor set is solved once; distinct
    elimination orders that leave the same survivors share it, and every
    further entry the recursion would make into it counts as a memo hit.
    Returns (value, recursive_calls, base_case_calls, memo_hits).
    """
    xs = tuple(values)
    n = len(xs)
    value, sizes = _fill_levels(n, rank, lambda S: min([xs[i] for i in S]), max)
    states = sum(sizes)
    recursive = 1 + (n - rank + 2) * (states - sizes[0])
    return value, recursive, sizes[0], recursive - states


def select_fullrange(values, rank):
    """Variant that scans every elimination index, not just the first
    N - n + 2. Memoized internally; returns the value only."""
    xs = tuple(values)
    cache = {}

    def go(idx, mask, m):
        hit = cache.get(mask)
        if hit is not None:
            return hit
        if m == 1:
            best = min(xs[i] for i in idx)
        else:
            best = max(
                go(idx[:j] + idx[j + 1:], mask & ~(1 << idx[j]), m - 1)
                for j in range(len(idx))
            )
        cache[mask] = best
        return best

    n = len(xs)
    return go(tuple(range(n)), (1 << n) - 1, rank)

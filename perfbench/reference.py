"""A fixed piece of Python work that measures how fast the machine is now.

The benchmark's host is shared: over a few minutes the same op's wall time
drifts by 30 % or more, much more than a change to the package under test
would move it. So the harness times this reference work next to every op and
reports each op time scaled to the speed at which the reference takes
REFERENCE_S: `scaled = raw * REFERENCE_S / reference_time`. A change to the
package moves scaled times as much as it moves raw ones, because the
reference shares no code with the package. The raw times stay in the run
record.

The reference mixes what the package's hot paths do: small-int dict churn,
and a memoized max-of-mins recursion over tuples with generators and
closures. The garbage collector is off while it runs, so heap that the
package leaves behind cannot slow it down.
"""

import gc
import time

# Typical reference time on the 2-core machine the benchmark was set up on.
REFERENCE_S = 0.0007

_XS = tuple(float((i * 37) % 11) for i in range(9))


def _select(idx, mask, m, cache):
    hit = cache.get(mask)
    if hit is not None:
        return hit
    if m == 1:
        best = min(_XS[i] for i in idx)
    else:
        best = max(_select(idx[:j] + idx[j + 1:], mask & ~(1 << idx[j]), m - 1, cache)
                   for j in range(len(idx) - m + 2))
    cache[mask] = best
    return best


def _work():
    table = {}
    for i in range(1000):
        table[(i * 7919) % 4093 * 8 + (i & 7)] = float(i)
    return sum(table.values()) + _select(tuple(range(9)), 511, 5, {})


def reference_time():
    """Seconds the reference work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

"""A fixed computation that measures the speed of the host.

The benchmark shares its host with other work, and the speed of one core
for single-threaded Python drifts by up to 2x over minutes.  The timed loop
(bench/worker.py) runs `reference_work` between ops, about once per
REF_EVERY_S of op time, and bench/run.py scales every reported time by
REF_S / (median reference time of the run): the end-to-end timings read as
they would on a host where the reference takes REF_S seconds.

The reference uses only the benchmark's own code, so no change to airframe
changes it: its model of the Airplane rules on dicts of tuple addresses, as
airframe's diagrams use them, and Fraction arithmetic, as the coordinate
action uses it.
"""

import time
from fractions import Fraction

from workloads import BASE_COLORS, CHILD_COLORS, color_of, is_reduced

REF_S = 0.02
REF_EVERY_S = 0.4


def _leaves(depth):
    """Leaves of a fixed, uneven expansion of the base edges."""
    todo = [(b, ()) for b in sorted(BASE_COLORS)]
    leaves = []
    while todo:
        a = todo.pop()
        if len(a[1]) < depth and (len(a[1]) + sum(a[1])) % 3 != 2:
            n = len(CHILD_COLORS[color_of(a)])
            todo.extend((a[0], a[1] + (i,)) for i in range(n))
        else:
            leaves.append(a)
    return leaves


def reference_work():
    acc = 0
    for _ in range(3):
        mapping = {a: (a, False) for a in _leaves(6)}
        acc += is_reduced(mapping)
        inverse = {b: (a, r) for a, (b, r) in mapping.items()}
        acc += sum(1 for a in mapping if inverse[mapping[a][0]][0] == a)
    x = Fraction(1, 3)
    for k in range(1, 400):
        x = (x * Fraction(2 * k + 1, 2 * k + 3) + Fraction(1, k)) % 1
    return acc + x.denominator


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0

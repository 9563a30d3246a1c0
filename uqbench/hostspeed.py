"""A fixed reference computation, timed between operations to track host speed.

On a shared host the speed of one core drifts by 10-30 % over a minute
and now and then halves for a few seconds, by more than a change worth
measuring.  The worker times this computation before the first CLI call
of a run and after every call; a call's wall time divided by the mean of
the two reference times around it, times ``REF_S``, is its time at the
host speed at which the reference takes ``REF_S`` seconds.  After a long
call the reference runs several times, about 5 % of the call's time, and
its mean is the sample, so that one slow pass does not set the scale of
a call of many seconds.

The computation is the benchmark's own and never calls the program, so a
change to the program moves the operation's time and not the reference.
It is about a third each of interpreter arithmetic, sorting 100,000
scores, and a loop of small-array NumPy calls: under host slowdowns on a
2-vCPU machine these tracked ``voxel-render`` operations more closely
(correlation 0.85-0.89) than scatters and gathers over arrays of 7 to
64 MB did (0.46-0.81).  Its inputs take under 3 MB, far less than any
workload's operation allocates; the worker's peak memory on
``ablate-grid``, the smallest, moved from 109.8 to 110.1 MB with it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the reference's median time on the machine the README's figures come from
REF_S = 0.17
SAMPLE_SHARE = 0.05


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference computation."""
    rng = np.random.default_rng(20230718)
    scores = rng.standard_normal(100_000)
    x = rng.standard_normal((32, 32, 16))
    t0 = time.perf_counter()
    s = 0
    for i in range(500_000):
        s += i * i % 7
    for _ in range(3):
        np.argsort(scores, kind="stable")
        np.argsort(-scores)
    for _ in range(200):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        x = 0.5 * x + 0.1 * (e / e.sum(axis=-1, keepdims=True))
    return time.perf_counter() - t0


def speed_sample(call_s: float) -> float:
    """Mean reference seconds over enough passes to take ``SAMPLE_SHARE`` of ``call_s``."""
    passes = max(1, math.ceil(SAMPLE_SHARE * call_s / REF_S))
    return sum(reference_seconds() for _ in range(passes)) / passes

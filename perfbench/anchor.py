"""Host-speed anchor: a fixed cold-start job that runs no code of this repo.

``perfbench/run.py`` launches this file in a fresh interpreter right
before every timed sample.  Like a sample, it imports numpy and
``scipy.stats`` (the anchor's set-up phase) and then runs a pure-Python
event loop over a heap and dicts (its run phase), the kind of work the
simulator does.  Nothing the repository changes can make it faster or
slower, so the ratio of a sample's time to the anchor's time, both
taken within seconds of each other, tracks the code and cancels most of
the host's minute-scale speed drift.  The parent times the whole process.
"""

import heapq
import random

import numpy  # noqa: F401
import scipy.stats  # noqa: F401

rng = random.Random(1)
heap: list = []
state: dict = {}
acc = 0.0
for i in range(1024):
    heapq.heappush(heap, (rng.random(), i))
    state[i] = [0, 0.0]
for _ in range(200_000):
    now, i = heapq.heappop(heap)
    s = state[i]
    s[0] += 1
    s[1] += now
    acc += now * 0.5 + s[1] / s[0]
    heapq.heappush(heap, (now + rng.random(), i))
if not acc > 0:
    raise SystemExit("anchor loop computed nothing")

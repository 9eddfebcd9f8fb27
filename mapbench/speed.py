"""Machine-speed samples, to rescale times to a reference speed.

The 2-core machine these figures come from changes speed by tens of
percent, and flips between a fast and a slow state within a second or
two: back-to-back bursts of the piece below took a median of 0.20 ms in
one and 0.40 ms in the next, with nothing else of the benchmark
running. That swamps the differences a change to semmap makes. So the
benchmark times a fixed piece of work, independent of semmap, between
frames: at every frame of each `cmd_run`, and at every second frame
while the set-up renders. It rescales a time by KERNEL_REF_S over the
median sample around it: each frame of a `cmd_run` by the WINDOW
samples nearest to it, the rest of a stretch (parsing and writing; the
set-up's imports and rendering) by the median sample of the stretch.
The result is the time it would have taken on a machine that does the
piece in KERNEL_REF_S (near the slow end of the 0.37-0.66 ms it took
between frames there). Bursts taken only before and after a stretch
see the state of a moment, not of the stretch: 50 ms bursts around
each `cmd_run` of one walking run gave factors from 1.57 to 3.21.

A sample lies between two frames and its time is left out of every
time. It is the thread CPU time of the piece, with the garbage
collector paused, so a worker thread of semmap holding the interpreter
lock, or a collection that semmap's heap is due, is not charged to it.
What remains shared is the processor itself: a piece run right after a
frame finds its caches holding semmap's data.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter, thread_time

import numpy as np
from scipy.spatial import cKDTree

WINDOW = 16
KERNEL_REF_S = 0.65e-3

_rng = np.random.default_rng(0)
_POINTS = _rng.random((2048, 3))
_TREE = cKDTree(_POINTS)
_QUERY = _POINTS[:128] + 0.01
_SYSTEM = _rng.random((48, 48)) + 48.0 * np.eye(48)
_KEYS = np.array([1, 64, 4096])


def kernel() -> float:
    """CPU seconds one pass of the fixed work takes: the mix of
    interpreter work, nearest-neighbour queries, a small dense solve and
    a voxel-style key pass that the pipeline itself is made of."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        table: dict[int, float] = {}
        for i in range(200):
            table[i % 13] = table.get(i % 13, 0.0) + math.sqrt(i)
        _TREE.query(_QUERY, k=1)
        np.linalg.solve(_SYSTEM, _POINTS[:48])
        np.unique(np.floor(_POINTS * 8.0).astype(np.int64) @ _KEYS)
        return thread_time() - t0
    finally:
        if collecting:
            gc.enable()


class Stretch:
    """Speed samples of one timed stretch, and the wall time they took."""

    def __init__(self, every: int = 1):
        self.every = every
        self.samples: list[float] = []
        self.excluded_s = 0.0
        self._calls = 0

    def tick(self) -> None:
        """Called at every frame start; samples every `every`-th."""
        if self._calls % self.every == 0:
            t0 = perf_counter()
            self.samples.append(kernel())
            self.excluded_s += perf_counter() - t0
        self._calls += 1

    @property
    def factor(self) -> float:
        """Rescaling factor of the stretch as a whole."""
        return KERNEL_REF_S / statistics.median(self.samples)

    def frame_factors(self, frames: int) -> np.ndarray:
        """Rescaling factor of each frame, from the WINDOW samples taken
        nearest to it (sampled at every frame: frame i starts at sample
        i). The machine's speed can flip within a stretch, and a frame
        is rescaled by the speed around it."""
        s = np.asarray(self.samples)
        w = min(WINDOW, len(s))
        lo = np.clip(np.arange(frames) + 1 - w // 2, 0, len(s) - w)
        return KERNEL_REF_S / np.median(s[lo[:, None] + np.arange(w)], axis=1)

"""Machine-speed reference: the time unit of the end-to-end metrics.

On the shared 2-core VM the benchmark was calibrated on, speed changes by up
to ~1.7x over seconds to minutes, and CPU time moves with wall time, so no
estimator over one run's op times can remove it.  Throughout a run the
benchmark also times a fixed reference loop that does not touch bohrlab, and
scales the run's op times by
REFERENCE_S / (the loop's median time over the run; for set-up, right after
it).  The metrics then read as figures on a machine that runs the loop in
REFERENCE_S.  The raw wall-clock figures are printed beside them.

The loop imitates a Monte-Carlo trial on the same small complex arrays
(seeded draws, a Schur-style polynomial recursion, a truncated division
loop, a powered sum).  Across slow and fast phases, where raw trial times
moved by ~25%, a trial's time over the loop's stayed within ~3%.  One factor
per run, rather than one per op, because such a VM also flips phase within a
second, faster than the loop can be sampled next to each op.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.005  # the loop's time on that VM in a fast phase, rounded
EVERY_S = 0.5  # at most one sample per half second, taken between ops


def reference_loop() -> float:
    """Seconds taken by the fixed reference work."""
    import numpy as np

    start = time.perf_counter()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        g = np.sqrt(rng.random(13)) * np.exp(2j * np.pi * rng.random(13))
        p, q = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
        for x in g[::-1]:
            zp, qp = np.concatenate(([0.0], p)), np.concatenate((q, [0.0]))
            p, q = x * qp + zp, qp + np.conj(x) * zp
        out = np.zeros(65, dtype=complex)
        for n in range(65):
            acc = p[n] if n < len(p) else 0.0
            k = min(n, len(q) - 1)
            if k:
                acc -= np.dot(q[1:k + 1], out[n - 1::-1][:k])
            out[n] = acc / q[0]
        float(np.dot(np.abs(out) ** 1.5, 0.5 ** np.arange(65)))
    return time.perf_counter() - start


class Speed:
    """Reference-loop samples taken during a run, as (midpoint, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        dur = reference_loop()
        self.samples.append((start + dur / 2.0, dur))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """REFERENCE_S over the median loop time of the run so far."""
        return REFERENCE_S / statistics.median(d for _, d in self.samples)

"""Machine-speed calibration: a fixed kernel timed between the operations.

On a shared VM the speed of one vCPU changes by 20-40% from one second to
the next (other tenants contend for the core and its caches; the process's
CPU time grows with its wall time, so it is not descheduling).  Timed on its
own, an operation measures that drift more than the program.  `Clock` runs a
fixed calibration kernel, `unit`, in a short block before every timed item
and once more after the last one, and converts each item's wall time into
*reference seconds*: its wall time times REF_UNIT_S over the mean time of one
kernel unit in the two blocks on either side of it.  The kernel is not
perfoplate code, so a change to the program moves the items' wall times and
not the kernel's: reference seconds move with the program and not with the
machine.  With calibration on, every item starts after a full garbage
collection, so that when collections run does not depend on how many
kernel units ran before it.

The kernel mixes the kinds of work perfoplate does: a sparse matrix
assembled from COO triplets with numpy, a SuperLU factorization and solve,
and a Python loop over small numpy arrays.  Its inputs are fixed (they do
not depend on the workload seed) and it must never change, or reference
seconds measured before and after the change are not comparable.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Seconds one kernel unit takes on the reference machine (2-vCPU x86-64 VM,
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17, BLAS
# single-threaded), about its median there: the scale of reference seconds.
REF_UNIT_S = 0.006

GRID = 40           # kernel grid side: a GRID x GRID 5-point stencil
SMALL_STEPS = 150   # Python-level iterations over 3x3 arrays
BLOCK_SHARE = 0.1   # a block lasts this share of the items next to it...
MIN_BLOCK_S = 0.02  # ...and at least this long
WARMUP_S = 0.2      # untimed units before the first block


def _triplets():
    idx = np.arange(GRID * GRID).reshape(GRID, GRID)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [np.full(GRID * GRID, 4.0)]
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [np.full(a.size, -1.0)] * 2
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


_ROWS, _COLS, _VALS = _triplets()
_RHS = np.linspace(0.0, 1.0, GRID * GRID)
_SMALL = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])


def unit():
    """One calibration unit (about REF_UNIT_S on the reference machine)."""
    n = GRID * GRID
    matrix = sp.coo_matrix((_VALS, (_ROWS, _COLS)), shape=(n, n)).tocsc()
    total = float(splu(matrix).solve(_RHS).sum())
    v = np.ones(3)
    for _ in range(SMALL_STEPS):
        v = _SMALL @ v
        v /= np.linalg.norm(v)
    return total + float(v.sum())


class Clock:
    """Times the items of a run (set-ups and operations).

    With `calibrate` set, a block of kernel units runs before every item and
    `close` runs the last one after it; `reference_s(i)` is then item i's
    wall time in reference seconds.  Without it (the traced run and the
    reference generator) items are only timed: no kernel, no collections.
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.items = []    # [kind, wall seconds, index of the block before it]
        self.blocks = []   # mean seconds of one kernel unit in each block
        self._last = {}    # kind -> wall seconds of its latest item
        if calibrate:
            t0 = perf_counter()
            while perf_counter() - t0 < WARMUP_S:
                unit()

    def _block(self, span_s):
        target = max(MIN_BLOCK_S, BLOCK_SHARE * span_s)
        count, t0 = 0, perf_counter()
        while True:
            unit()
            count += 1
            elapsed = perf_counter() - t0
            if elapsed >= target:
                break
        self.blocks.append(elapsed / count)

    def time(self, kind, fn, *args, **kwargs):
        """Call fn, timing it as one item of `kind`; returns fn's result."""
        if self.calibrate:
            gc.collect()
            previous = self.items[-1][1] if self.items else 0.0
            self._block(max(previous, self._last.get(kind, 0.0)))
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = perf_counter() - t0
            self.items.append([kind, wall, len(self.blocks) - 1])
            self._last[kind] = wall

    def close(self):
        """Calibrate after the last item; call before reading reference_s."""
        if self.calibrate and self.items:
            if self.items[-1][2] == len(self.blocks) - 1:
                self._block(self.items[-1][1])

    def reference_s(self, index):
        _, wall, before = self.items[index]
        unit_s = 0.5 * (self.blocks[before] + self.blocks[before + 1])
        return wall * REF_UNIT_S / unit_s

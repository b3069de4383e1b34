"""Fixed reference kernels that express timings at a nominal machine speed.

On a virtual machine with 2 vCPUs on shared host cores (Python 3.11,
numpy 2.4, OpenBLAS 0.3.31), the same computation took from 25 to 48 ms
within one minute, and consecutive 3 ms samples of one kernel differed
by up to 1.7x. Raw run-to-run spreads of 20 to 45 % there hide any change
a bound could catch.

The benchmark therefore times a kernel before the first op and again
whenever SAMPLE_EVERY_S of op time has passed, and scales each op by
nominal / (median of the WINDOW kernel samples nearest to it). The
slowdown does not hit all code alike: interpreter-bound code and BLAS
at n >= 48 speed up and slow down apart. So there are two kernels, and
each workload uses the one that tracked it best, measured as the spread
of scaled 10 s segments of one long run:

    interp  dict and loop work, eigh/matmul/kron at n = 4..16
            (sweep-small 2.3 %, cli-scenarios 2.5 %; blas: 4.6 %, 2.6 %)
    blas    eigh at n = 64, matmul at n = 128, twenty matmuls at n = 48
            (sweep-large 2.6 %, instrument-roundtrip 2.5 %; interp: 8.5 %, 3.5 %)

The kernels are part of the benchmark, not of the program, so a change
to the program cannot move them. Raw timings are kept in the run record
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = {"interp": 0.00125, "blas": 0.00125}  # kernel times that define the reference speed
SAMPLE_EVERY_S = 0.02   # op time between two kernel samples
WINDOW = 7              # kernel samples whose median scales one op


class RefClock:
    sample_every_s = SAMPLE_EVERY_S
    window = WINDOW

    def __init__(self, kind: str):
        rng = np.random.default_rng(20150708)
        self.mats = {}
        for n in (4, 6, 9, 12, 16, 48, 64, 128):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.mats[n] = 0.5 * (g + g.conj().T)
        self.kind = kind
        self.kernel = {"interp": self._interp, "blas": self._blas}[kind]
        self.nominal_s = NOMINAL_S[kind]
        self.kernel()

    def _interp(self) -> float:
        acc = 0.0
        for _ in range(30):
            table = {}
            for i in range(40):
                table[i] = i * acc
            acc += len(table) + sum(float(x) for x in range(8))
        for n in (4, 6, 9, 12, 16):
            for _ in range(3):
                w, v = np.linalg.eigh(self.mats[n])
                p = (v * w) @ v.conj().T
                acc += float(np.abs(np.kron(p[:2, :2], p[:2, :2])).max())
        return acc

    def _blas(self) -> float:
        w, _ = np.linalg.eigh(self.mats[64])
        acc = float(w[0]) + float(np.abs(self.mats[128] @ self.mats[128]).max())
        a = self.mats[48]
        for _ in range(20):
            acc += float((a @ a)[0, 0].real)
        return acc

    def sample(self) -> float:
        """Seconds the kernel takes right now."""
        t = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t

    def factor(self, samples: list, at: int) -> float:
        """Scale for work done next to samples[at]."""
        lo = max(0, min(at - WINDOW // 2, len(samples) - WINDOW))
        return self.nominal_s / statistics.median(samples[lo:lo + WINDOW])

"""A fixed calibration mix, timed between passes to track the machine's speed.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes, so two runs of the same code can differ by more than any useful
regression bound.  The mix is fixed work that does not touch bmlselect:
a pure-Python float loop (like the lambda objective), small numpy solves
(like the per-candidate fits), a dense Cholesky and product (like the
nerm phi profile) and float formatting (like the CSV writer).  The dense
part is the smallest: its speed tracked that of the passes least.  Timing
the mix between passes samples the speed the passes ran at; the end-to-end
times are rescaled by ``NOMINAL_S / mix time``.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Time one mix takes on a quiet core of the baseline machine (see README.md).
# It only sets the scale of the rescaled times.
NOMINAL_S = 0.25


class Mix:
    def __init__(self):
        rng = np.random.default_rng(20150325)
        self.x = rng.standard_normal((80, 6))
        self.y = rng.standard_normal(80)
        a = rng.standard_normal((300, 300))
        self.spd = a @ a.T + 300.0 * np.eye(300)
        self.checksum = None

    def _python(self, iters: int = 100_000) -> float:
        d = (0.5, 1.5, 2.5, 3.5)
        z = (0.1, 0.2, 0.3, 0.4)
        acc = 0.0
        for i in range(iters):
            lam = math.exp(-3.0 + (i % 50) * 0.1)
            pen, quad = 0.0, 10.0
            for di, zi in zip(d, z):
                pen += math.log1p(di / lam)
                quad -= zi / (di + lam)
            acc += pen + quad
        return acc

    def _small_numpy(self, iters: int = 3_500) -> float:
        acc = 0.0
        for i in range(iters):
            xs = self.x[:, : 1 + i % 6]
            gram = xs.T @ xs + np.eye(xs.shape[1])
            chol = np.linalg.cholesky(gram)
            beta = np.linalg.solve(gram, xs.T @ self.y)
            resid = self.y - xs @ beta
            acc += float(resid @ resid) + float(np.sum(np.log(np.diag(chol))))
        return acc

    def _dense(self, iters: int = 10) -> float:
        acc = 0.0
        for _ in range(iters):
            acc += float(np.linalg.cholesky(self.spd)[-1, -1])
            acc += float((self.spd @ self.spd)[0, 0])
        return acc

    def _format(self, rows: int = 6_000) -> int:
        out = []
        for i in range(rows):
            row = self.x[i % 80]
            out.append(",".join([str(i), repr(float(row[0]) * i)] + [repr(float(v)) for v in row]))
        return len("\n".join(out))

    def time(self) -> float:
        """Wall seconds of one mix.  Its result must never change."""
        t0 = time.perf_counter()
        checksum = (self._python(), self._small_numpy(), self._dense(), self._format())
        wall = time.perf_counter() - t0
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("the calibration mix gave a different result")
        return wall

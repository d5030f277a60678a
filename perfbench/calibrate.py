"""Fixed reference work: how fast this machine runs regrow-like code right now.

    python3 perfbench/calibrate.py    # prints the seconds the work took

The benchmark runs this in its own process before set-up, after every world
it builds and after every timed pass. The machine it was written on (2
shared vCPUs) flips between two speeds ~1.45x apart every few seconds to
minutes as neighbours load the host, which moves every timing by the same
factor; dividing by the mean of these samples takes much of that out (see
``run.py``).

The work imitates regrow's mix: parsing CSV floats into small arrays,
per-vector numpy calls from Python loops, small sort/cumsum split searches,
one dense matrix product and repr-formatting of floats. It never changes:
a new version would shift every calibrated time.
"""

from __future__ import annotations

import random
import time

import numpy as np


def work() -> float:
    rnd = random.Random(20240101)
    text = "\n".join(",".join(repr(rnd.random()) for _ in range(64)) for _ in range(4000))
    vecs = [np.array([float(x) for x in line.split(",")]) for line in text.split("\n")]
    acc = 0.0
    for a, b in zip(vecs, vecs[1:]):
        acc += float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))
    X = np.stack(vecs)
    y = X[:, 0] * 2.0 - X[:, 1]
    for j in range(64):
        for lo in range(0, 4000, 100):
            v = X[lo:lo + 100, j]
            order = np.argsort(v, kind="stable")
            left = np.cumsum(y[lo:lo + 100][order])
            acc += float(left[-1])
    acc += float((X @ X.T).sum())
    acc += len(",".join(repr(float(v)) for v in X[:1000].ravel()))
    return acc


def main() -> None:
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

"""The x87 extended type, which the exact decimal kernels share.

``ingest`` parses the numbers of a table, and ``csvio`` formats them, with
integer and ``np.longdouble`` arithmetic that is exact, or rounded once, in
the 64-bit significand of the x87 80-bit type. Where ``np.longdouble`` is
some other type, both leave every cell to Python's own ``float()`` and
``repr()``.
"""

from __future__ import annotations

import numpy as np

#: Whether ``np.longdouble`` is the x87 80-bit type, with its 64-bit
#: significand: the significand of its 1/3 is 0xAAAAAAAAAAAAAAAB.
X87 = (np.longdouble(1) / np.longdouble(3)).tobytes()[:8] == (
    0xAAAAAAAAAAAAAAAB).to_bytes(8, "little")

#: 10**k for k <= 18 as int64, and for k <= 27 as long doubles, made exactly.
POW10 = 10 ** np.arange(19, dtype=np.int64)
POW10_X87 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))


def significand(x: np.ndarray) -> np.ndarray:
    """A view of the 64-bit significand of each x87 long double of ``x``."""
    return np.ndarray(x.shape, np.uint64, x, 0, (x.itemsize,))


def exponent(x: np.ndarray) -> np.ndarray:
    """A view of the sign bit and 15-bit biased exponent of each x87 long
    double of ``x``: ``x`` is ``significand * 2**(exponent - 16383 - 63)``."""
    return np.ndarray(x.shape, np.uint16, x, 8, (x.itemsize,))

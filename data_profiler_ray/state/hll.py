"""HyperLogLog distinct-count sketch with an exact small-set front end.

The reference counts distinct values exactly via ``series.value_counts``
(``/root/reference/stelardataprofiler/tabular_timeseries/variables/utils.py:157-191``,
fields n_distinct/p_distinct). At 10^12 rows the exact dict is impossible, so
this sketch keeps an **exact set of hashes while cardinality is small**
(parity with the reference on test data) and degrades to classic HLL
registers beyond a threshold (bounded ~1.04/sqrt(2^p) relative error at
scale). The exact set is a sorted ``uint64`` array grown by ``np.union1d``,
so it pickles as one raw buffer.

Column accumulators feed this sketch only once their value counter has
overflowed (``state/column.py:_DistinctMixin``); until then the counter's
keys are the exact distinct set.

The column accumulators hash strings with the word hash
``functions.text.hash_string_array_words`` (``state/column.py:_key_hashes``)
and every other type with ``pandas.util.hash_array`` (``hash64``). Both are
vectorized and deterministic across processes.
"""

from __future__ import annotations

import numpy as np
from pandas.util import hash_array

DEFAULT_P = 14            # 2^14 registers -> ~0.8% standard error
EXACT_THRESHOLD = 65536   # keep exact set of 64-bit hashes up to this size


def hash64(values: np.ndarray) -> np.ndarray:
    """Stable vectorized 64-bit hash of a numpy array (any dtype)."""
    arr = np.asarray(values)
    if arr.dtype == object:
        return hash_array(arr, categorize=True)
    return hash_array(arr)


class HLLSketch:
    __slots__ = ("p", "m", "registers", "exact", "exact_threshold")

    def __init__(self, p: int = DEFAULT_P, exact_threshold: int = EXACT_THRESHOLD):
        self.p = p
        self.m = 1 << p
        self.registers: np.ndarray | None = None  # lazily allocated uint8[m]
        # sorted unique hashes; None once degraded to HLL
        self.exact: np.ndarray | None = np.zeros(0, dtype=np.uint64)
        self.exact_threshold = exact_threshold

    def update_hashes(self, h: np.ndarray) -> None:
        if h.size == 0:
            return
        if self.exact is not None:
            self.exact = np.union1d(self.exact, h.astype(np.uint64, copy=False))
            if self.exact.size > self.exact_threshold:
                self._degrade()
            return
        self._update_registers(h)

    def update(self, values: np.ndarray) -> None:
        if len(values):
            self.update_hashes(hash64(values))

    def _degrade(self) -> None:
        pending = self.exact
        self.exact = None
        self.registers = np.zeros(self.m, dtype=np.uint8)
        self._update_registers(pending)

    def _update_registers(self, h: np.ndarray) -> None:
        h = h.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of `rest` + 1, in [1, 64-p+1]. Each 32-bit
        # half of `rest` is exact in float64, and frexp's exponent of a
        # positive integer is its bit length.
        hi = (rest >> np.uint64(32)).astype(np.float64)
        lo = (rest & np.uint64(0xFFFFFFFF)).astype(np.float64)
        clz = np.where(hi > 0, 32 - np.frexp(hi)[1], 64 - np.frexp(lo)[1])
        rank = (clz + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HLLSketch") -> None:
        if other.exact is not None:
            self.update_hashes(other.exact)
        else:
            if self.exact is not None:
                self._degrade()
            np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> int:
        if self.exact is not None:
            return int(self.exact.size)
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        regs = self.registers.astype(np.float64)
        e = alpha * m * m / np.sum(np.exp2(-regs))
        if e <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                e = m * np.log(m / zeros)  # linear counting
        return int(round(e))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

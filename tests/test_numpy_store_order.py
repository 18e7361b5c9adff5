"""numpy's repeated-index store keeps the last write.

``a[idx] = np.arange(len(idx))`` leaves, in every slot ``idx`` repeats,
the largest position that names it.  A first-occurrence pass (store the
positions reversed, so the first writer wins) relies on this; numpy
documents only that *some* value survives, so the order is pinned here.
"""

from __future__ import annotations

import numpy as np
import pytest


def _last_positions(idx: np.ndarray, size: int) -> np.ndarray:
    want = np.full(size, -1, dtype=np.int64)
    for i, slot in enumerate(idx.tolist()):
        want[slot] = i
    return want


def _index_arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20)
    repeated = rng.integers(0, 64, size=50_000)
    return {
        "repeated": repeated,
        "reversed": repeated[::-1],
        "strided": repeated[::3],
        "strided-reversed": repeated[-2::-7],
        "one-slot": np.zeros(1_000, dtype=np.int64),
        "int32-index": repeated.astype(np.int32),
    }


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("name", sorted(_index_arrays()))
def test_repeated_store_keeps_the_last_position(dtype, name):
    idx = _index_arrays()[name]
    target = np.full(64, -1, dtype=dtype)
    target[idx] = np.arange(len(idx), dtype=dtype)
    assert np.array_equal(target, _last_positions(idx, 64))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_reversed_store_keeps_the_first_position(dtype):
    idx = _index_arrays()["repeated"]
    positions = np.arange(len(idx), dtype=dtype)
    target = np.full(64, -1, dtype=dtype)
    target[idx[::-1]] = positions[::-1]
    first = np.full(64, -1, dtype=np.int64)
    slots, at = np.unique(idx, return_index=True)
    first[slots] = at
    assert np.array_equal(target, first)

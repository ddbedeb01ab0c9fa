"""Sorted-array representation of PUF position sets.

A PUF response is mathematically a *set* of bit positions, but the pipeline
represents it as a **sorted, duplicate-free ``np.int64`` array** from the
chip layer all the way to the Jaccard histogram: set algebra becomes
``np.intersect1d``/``np.union1d`` over sorted arrays, which is what makes the
pair kernels fast enough to saturate the process-level sharding added in
PR 2.  The helpers here are the one place that defines the canonical form
and the set operations every layer shares.

All functions preserve *value identity* with the frozenset formulation: the
Jaccard index is computed as an integer-cardinality ratio, so array-native
and set-native evaluation produce bit-identical floats (enforced by property
tests against a frozenset reference implementation).
"""

from __future__ import annotations

import numpy as np

#: Anything accepted as a collection of bit positions.
PositionsLike = "np.ndarray | frozenset[int] | set[int] | Iterable[int]"


def as_position_array(positions: PositionsLike) -> np.ndarray:
    """Canonicalize ``positions`` into a sorted, unique ``np.int64`` array.

    Arrays produced by the chip/module layer are already sorted and unique
    and pass through with at most a dtype cast; sets and other iterables are
    materialized and deduplicated.  The result is always safe for
    ``assume_unique=True`` set operations.
    """
    if isinstance(positions, np.ndarray):
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        array = _as_int64(positions)
        if array.ndim != 1:
            raise ValueError(
                f"position arrays must be one-dimensional, got shape {array.shape}"
            )
        # Producers hand out sorted unique arrays; only re-canonicalize when
        # an externally built array violates that.
        if array.size > 1 and not _is_sorted_unique(array):
            array = np.unique(array)
        return array
    array = np.asarray(tuple(positions))
    if array.size == 0:
        return np.empty(0, dtype=np.int64)
    array = _as_int64(array)
    return np.unique(array)


def _as_int64(array: np.ndarray) -> np.ndarray:
    """Cast an integer-kind array to ``int64``; reject non-integer dtypes.

    A silent ``astype`` would truncate float positions (``0.7 -> 0``) and
    corrupt the set semantics, so non-integer input (floats, booleans --
    e.g. a mask passed where indices were meant) fails loudly instead.
    """
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"positions must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def _is_sorted_unique(array: np.ndarray) -> bool:
    """True when ``array`` is strictly increasing (hence sorted and unique)."""
    return bool(np.all(array[1:] > array[:-1]))


def check_canonical(array: np.ndarray) -> np.ndarray:
    """Validate that ``array`` is in canonical form; raise ``ValueError`` if not.

    Canonical form is the contract every fast path in the pipeline assumes:
    one-dimensional, ``int64``, strictly increasing.  Returns the (dtype-cast)
    array on success.
    """
    array = _as_int64(array)
    if array.ndim != 1:
        raise ValueError(
            f"position arrays must be one-dimensional, got shape {array.shape}"
        )
    if array.size > 1 and not _is_sorted_unique(array):
        raise ValueError(
            "position array must be sorted and duplicate-free; "
            "use as_position_array to canonicalize arbitrary input"
        )
    return array


def intersect_positions(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Intersection of two canonical position arrays (sorted unique)."""
    return np.intersect1d(first, second, assume_unique=True)


def union_positions(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Union of two canonical position arrays (sorted unique)."""
    return np.union1d(first, second)


def intersection_size(first: np.ndarray, second: np.ndarray) -> int:
    """``|A n B|`` of two canonical position arrays.

    The innermost operation of every pair kernel, so it avoids
    ``np.intersect1d``'s concatenate-and-sort: binary-searching the smaller
    array into the larger one costs ``O(m log n)`` and allocates only the
    index array.
    """
    if first.size > second.size:
        first, second = second, first
    if first.size == 0:
        return 0
    indices = np.searchsorted(second, first)
    found = indices < second.size
    return int(np.count_nonzero(second[indices[found]] == first[found]))


def jaccard_index_arrays(first: np.ndarray, second: np.ndarray) -> float:
    """Jaccard similarity of two canonical position arrays.

    Two empty sets are treated as identical (index 1.0), matching the
    frozenset convention.  The value is the exact integer ratio
    ``|A n B| / (|A| + |B| - |A n B|)``, bit-identical to the set version.
    """
    intersection = intersection_size(first, second)
    union = int(first.size) + int(second.size) - intersection
    if union == 0:
        return 1.0
    return intersection / union


def positions_equal(first: np.ndarray, second: np.ndarray) -> bool:
    """Exact set equality of two canonical position arrays."""
    return first.size == second.size and bool(np.array_equal(first, second))

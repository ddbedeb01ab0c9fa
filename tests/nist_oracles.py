"""Plain per-bit reference formulations of the NIST kernels (test-only).

:mod:`repro.rng.nist` computes the Berlekamp-Massey discrepancy as a bitset
parity, finds non-overlapping template matches with one windowed compare and
evaluates the cumulative-sums p-value with ``scipy.special.ndtr``.  The
functions here are the formulations those kernels replace -- a per-bit
discrepancy loop, a per-position template scan and ``scipy.stats.norm`` --
kept in the test suite only, as exact oracles for the kernels.
"""

from __future__ import annotations

import math

import numpy as np


def berlekamp_massey(block: np.ndarray) -> int:
    """Linear complexity with the discrepancy summed one tap at a time."""
    n = block.size
    bits_int = [int(b) for b in block]
    c = 1  # C(x) = 1
    b = 1  # B(x) = 1
    l = 0
    m = -1
    for index in range(n):
        # Discrepancy: s[index] + sum_{i=1..l} c_i * s[index - i]  (mod 2).
        discrepancy = bits_int[index]
        connection = c >> 1
        i = 1
        while connection and i <= l:
            if connection & 1:
                discrepancy ^= bits_int[index - i]
            connection >>= 1
            i += 1
        if discrepancy:
            temp = c
            c ^= b << (index - m)
            if l <= index // 2:
                l = index + 1 - l
                m = index
                b = temp
    return l


def non_overlapping_counts(
    bits: np.ndarray, template: tuple[int, ...], num_blocks: int
) -> list[int]:
    """Per-block template match counts from a position-by-position scan."""
    m = len(template)
    block_size = bits.size // num_blocks
    template_arr = np.asarray(template, dtype=np.int8)
    counts = []
    for index in range(num_blocks):
        block = bits[index * block_size : (index + 1) * block_size]
        count = 0
        position = 0
        while position <= block_size - m:
            if np.array_equal(block[position : position + m], template_arr):
                count += 1
                position += m
            else:
                position += 1
        counts.append(count)
    return counts


def cusum_p_value(z: float, n: int) -> float:
    """Cumulative-sums p-value through ``scipy.stats.norm.cdf``."""
    if z == 0.0:
        return 0.0
    from scipy.stats import norm

    total = 1.0
    k_start = int((-n / z + 1) // 4)
    k_end = int((n / z - 1) // 4)
    for k in range(k_start, k_end + 1):
        total -= norm.cdf((4 * k + 1) * z / math.sqrt(n)) - norm.cdf(
            (4 * k - 1) * z / math.sqrt(n)
        )
    k_start = int((-n / z - 3) // 4)
    for k in range(k_start, k_end + 1):
        total += norm.cdf((4 * k + 3) * z / math.sqrt(n)) - norm.cdf(
            (4 * k + 1) * z / math.sqrt(n)
        )
    return float(min(max(total, 0.0), 1.0))

"""The NIST kernels against their per-bit reference formulations.

``nist_oracles`` holds the loops the production kernels replace.  Integer
results (linear complexities, template match counts) must be equal, and
p-values must be equal bit for bit, so the suite's output cannot move.
"""

from __future__ import annotations

import numpy as np
import pytest

from nist_oracles import berlekamp_massey, cusum_p_value, non_overlapping_counts
from repro.rng.nist.basic import _cusum_p_value, cumulative_sums
from repro.rng.nist.complexity import _berlekamp_massey
from repro.rng.nist.templates import DEFAULT_NONOVERLAPPING_TEMPLATE, _non_overlapping_counts


def _random_blocks(count: int, seed: int = 7) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 601, count)
    return [rng.integers(0, 2, int(length)).astype(np.int8) for length in lengths]


def _lfsr_block(length: int, degree: int, seed: int) -> np.ndarray:
    """``length`` bits of a random degree-``degree`` LFSR with a non-zero state."""
    rng = np.random.default_rng(seed)
    taps = rng.integers(0, 2, degree)
    taps[-1] = 1  # c_L = 1: the register really has ``degree`` stages
    state = rng.integers(0, 2, degree)
    state[0] = 1
    bits = list(state)
    while len(bits) < length:
        bits.append(int(np.dot(taps, bits[-1 : -degree - 1 : -1]) % 2))
    return np.asarray(bits[:length], dtype=np.int8)


def _structured_blocks() -> list[np.ndarray]:
    blocks = []
    for length in (1, 2, 3, 7, 64, 500, 600):
        blocks.append(np.zeros(length, dtype=np.int8))
        blocks.append(np.ones(length, dtype=np.int8))
        blocks.append((np.arange(length) % 2).astype(np.int8))
        blocks.append(((np.arange(length) + 1) % 2).astype(np.int8))
    return blocks


class TestBerlekampMassey:
    def test_random_blocks_match_oracle(self):
        blocks = _random_blocks(200)
        assert {block.size for block in blocks} <= set(range(1, 601))
        for block in blocks:
            assert _berlekamp_massey(block) == berlekamp_massey(block)

    def test_structured_blocks_match_oracle(self):
        for block in _structured_blocks():
            assert _berlekamp_massey(block) == berlekamp_massey(block)

    @pytest.mark.parametrize("degree", [1, 2, 5, 17, 64, 150])
    def test_lfsr_blocks_match_oracle(self, degree):
        for seed in range(4):
            block = _lfsr_block(600, degree, seed)
            complexity = _berlekamp_massey(block)
            assert complexity == berlekamp_massey(block)
            assert complexity <= degree


class TestNonOverlappingTemplate:
    @pytest.mark.parametrize(
        "template", [DEFAULT_NONOVERLAPPING_TEMPLATE, (1, 1), (0, 1, 0), (1,) * 9]
    )
    def test_counts_match_scan(self, template):
        rng = np.random.default_rng(11)
        streams = [rng.integers(0, 2, int(n)).astype(np.int8) for n in (800, 2001, 4099)]
        streams += [np.zeros(1000, dtype=np.int8), np.ones(1000, dtype=np.int8),
                    (np.arange(1000) % 2).astype(np.int8)]
        for bits in streams:
            for num_blocks in (1, 3, 8):
                assert _non_overlapping_counts(bits, template, num_blocks) == (
                    non_overlapping_counts(bits, template, num_blocks)
                )

    def test_overlapping_run_counted_greedily(self):
        # Ten ones hold two overlapping windows of (1, 1, ..., 1) x 9 but one
        # non-overlapping match; the scan resumes after the counted match.
        bits = np.asarray([1] * 10 + [0] * 10, dtype=np.int8)
        assert _non_overlapping_counts(bits, (1,) * 9, 1) == [1]
        assert _non_overlapping_counts(bits, (1, 1), 1) == [5]


class TestCusumPValue:
    @pytest.mark.parametrize("n", [1, 2, 10, 101, 1000, 4096, 120_000])
    def test_bitwise_equal_on_grid(self, n):
        grid = {0.0, 0.5, 1.0, 1.7, 2.0, 3.0, n ** 0.5, n / 7.0, n / 2.0,
                float(n) - 1.0, float(n)}
        # The sums run over about n / z terms; z far below sqrt(n) does not
        # occur for a random walk and would only slow the oracle down.
        checked = [z for z in sorted(grid) if z == 0.0 or n / 1000.0 <= z <= n]
        assert len(checked) >= 3
        for z in checked:
            assert _cusum_p_value(z, n).hex() == cusum_p_value(z, n).hex()

    def test_random_streams(self):
        rng = np.random.default_rng(3)
        for size in (50, 999, 10_000, 65_536):
            bits = rng.integers(0, 2, size)
            adjusted = 2 * bits - 1
            expected = tuple(
                cusum_p_value(float(np.max(np.abs(np.cumsum(walk)))), size)
                for walk in (adjusted, adjusted[::-1])
            )
            result = cumulative_sums(bits)
            assert [p.hex() for p in result.sub_p_values] == [p.hex() for p in expected]


def test_nist_never_imports_scipy_stats(fresh_python):
    loaded = fresh_python(
        "import json, sys\n"
        "import numpy as np\n"
        "import repro.rng.nist\n"
        "from repro.rng.nist.basic import cumulative_sums\n"
        "cumulative_sums(np.random.default_rng(0).integers(0, 2, 4096))\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy.stats' or m.startswith('scipy.stats.'))))\n"
    )
    assert loaded == []

"""Tests for DRAM geometry, timing presets and address mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.geometry import DRAMGeometry, ModuleGeometry, STANDARD_CHIP_GEOMETRIES
from repro.dram.timing import (
    DDR3_1600_11_11_11,
    DDR3_1333_9_9_9,
    TimingParameters,
    timing_for_module,
    trfc_for_density_gbit,
)
from repro.utils.units import GB, MB


class TestChipGeometry:
    def test_4gb_chip_capacity(self):
        chip = STANDARD_CHIP_GEOMETRIES["4Gb_x8"]
        assert chip.capacity_bits == 4 * 1024 ** 3
        assert chip.capacity_bytes == 512 * MB
        assert chip.row_bytes == 1024

    def test_2gb_chip_capacity(self):
        chip = STANDARD_CHIP_GEOMETRIES["2Gb_x8"]
        assert chip.capacity_bits == 2 * 1024 ** 3

    def test_scaled_to_capacity(self):
        chip = STANDARD_CHIP_GEOMETRIES["4Gb_x8"]
        scaled = chip.scaled_to_capacity(chip.capacity_bytes // 4)
        assert scaled.capacity_bytes == chip.capacity_bytes // 4
        assert scaled.row_bits == chip.row_bits

    def test_scaled_too_small_rejected(self):
        chip = STANDARD_CHIP_GEOMETRIES["4Gb_x8"]
        with pytest.raises(ValueError):
            chip.scaled_to_capacity(100)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DRAMGeometry(banks=0)


class TestModuleGeometry:
    def test_8gb_module_from_4gb_chips(self):
        module = ModuleGeometry(chip=STANDARD_CHIP_GEOMETRIES["8Gb_x8"], chips_per_rank=8)
        assert module.capacity_bytes == 8 * GB
        assert module.row_bytes == 8192
        assert module.data_width_bits == 64

    def test_for_capacity_round_trip(self):
        for capacity in (64 * MB, 1 * GB, 64 * GB):
            module = ModuleGeometry.for_capacity(capacity)
            assert module.capacity_bytes == capacity

    def test_total_rows_counts_ranks(self):
        single = ModuleGeometry(chip=STANDARD_CHIP_GEOMETRIES["2Gb_x8"], ranks=1)
        dual = ModuleGeometry(chip=STANDARD_CHIP_GEOMETRIES["2Gb_x8"], ranks=2)
        assert dual.total_rows == 2 * single.total_rows
        assert dual.rows_per_rank == single.rows_per_rank


class TestTimingParameters:
    def test_ddr3_1600_defaults(self):
        timing = DDR3_1600_11_11_11
        assert timing.tCK_ns == pytest.approx(1.25)
        assert timing.CL_cycles == 11
        assert timing.data_rate_mt_s == pytest.approx(1600.0)
        assert timing.tRC_ns == pytest.approx(timing.tRAS_ns + timing.tRP_ns)

    def test_derived_times(self):
        timing = DDR3_1600_11_11_11
        assert timing.CL_ns == pytest.approx(13.75)
        assert timing.burst_time_ns == pytest.approx(5.0)
        assert timing.tCCD_ns == pytest.approx(5.0)

    def test_to_cycles_rounds_up(self):
        timing = DDR3_1600_11_11_11
        assert timing.to_cycles(13.75) == 11
        assert timing.to_cycles(13.8) == 12

    def test_invalid_trc_rejected(self):
        with pytest.raises(ValueError):
            TimingParameters(tRAS_ns=40.0, tRC_ns=30.0)

    def test_ddr3_1333_preset(self):
        assert DDR3_1333_9_9_9.tCK_ns == pytest.approx(1.5)
        assert DDR3_1333_9_9_9.CL_cycles == 9

    def test_scaled_frequency(self):
        scaled = DDR3_1600_11_11_11.scaled_frequency(1333)
        assert scaled.tCK_ns == pytest.approx(2000 / 1333, rel=1e-3)
        assert scaled.tRCD_ns == DDR3_1600_11_11_11.tRCD_ns

    def test_trfc_scales_with_density(self):
        assert trfc_for_density_gbit(2.0) == pytest.approx(160.0)
        assert trfc_for_density_gbit(4.0) == pytest.approx(260.0)
        assert trfc_for_density_gbit(16.0) > trfc_for_density_gbit(8.0)

    def test_timing_for_module_sets_trfc(self):
        small = timing_for_module(64 * MB)
        large = timing_for_module(64 * GB)
        assert large.tRFC_ns > small.tRFC_ns


class TestAddressMapper:
    @pytest.fixture
    def mapper(self) -> AddressMapper:
        geometry = ModuleGeometry(
            chip=DRAMGeometry(banks=8, rows_per_bank=1024, row_bits=8192),
            chips_per_rank=8,
        )
        return AddressMapper(geometry=geometry)

    def test_roundtrip(self, mapper):
        for address in (0, 64, 8192, 123456 * 64, mapper.capacity_bytes - 64):
            decoded = mapper.decode(address)
            assert mapper.encode(decoded) == address

    def test_sequential_lines_same_row(self, mapper):
        # The first 128 cache lines of the address space map to one row.
        rows = {mapper.decode(line * 64).row_key() for line in range(128)}
        assert len(rows) == 1

    def test_row_sized_block_spans_one_row(self, mapper):
        first = mapper.decode(0)
        last = mapper.decode(8191)
        assert first.row_key() == last.row_key()
        next_block = mapper.decode(8192)
        assert next_block.row_key() != first.row_key()

    def test_consecutive_rows_interleave_banks(self, mapper):
        banks = [mapper.decode(i * 8192).bank for i in range(8)]
        assert sorted(banks) == list(range(8))

    def test_out_of_range_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(mapper.capacity_bytes)

    def test_columns_per_row(self, mapper):
        assert mapper.columns_per_row == 128

    def test_decoded_fields_within_bounds(self, mapper):
        import numpy as np

        rng = np.random.default_rng(1)
        for address in rng.integers(0, mapper.capacity_bytes, 200):
            decoded = mapper.decode(int(address))
            assert 0 <= decoded.bank < 8
            assert 0 <= decoded.row < 1024
            assert 0 <= decoded.column < 128
            assert isinstance(decoded, DecodedAddress)


def _reference_decode(mapper: AddressMapper, physical_address: int) -> DecodedAddress:
    """Divide/mod decode straight from the geometry, radix by radix."""
    geometry = mapper.geometry
    columns_per_row = geometry.row_bytes // mapper.column_bytes
    offset = physical_address % mapper.column_bytes
    line = physical_address // mapper.column_bytes
    column, line = line % columns_per_row, line // columns_per_row
    bank, line = line % geometry.banks, line // geometry.banks
    rank, line = line % geometry.ranks, line // geometry.ranks
    channel, line = line % mapper.channels, line // mapper.channels
    return DecodedAddress(channel=channel, rank=rank, bank=bank, row=line,
                          column=column, byte_offset=offset)


class TestAddressMapperRadices:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("column_bytes", [64, 128])
    def test_decode_matches_reference(self, channels, column_bytes):
        geometry = ModuleGeometry(
            chip=DRAMGeometry(banks=8, rows_per_bank=256, row_bits=8192),
            chips_per_rank=8,
            ranks=2,
        )
        mapper = AddressMapper(geometry=geometry, channels=channels,
                               column_bytes=column_bytes)
        capacity = mapper.capacity_bytes
        assert capacity == geometry.capacity_bytes * channels
        rng = np.random.default_rng(channels * 1000 + column_bytes)
        addresses = [0, 1, column_bytes - 1, column_bytes, geometry.row_bytes,
                     capacity // 2, capacity - 1]
        addresses += [int(a) for a in rng.integers(0, capacity, 500)]
        for address in addresses:
            decoded = mapper.decode(address)
            assert decoded == _reference_decode(mapper, address)
            assert mapper.encode(decoded) == address

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_out_of_range_rejected(self, channels):
        geometry = ModuleGeometry(
            chip=DRAMGeometry(banks=8, rows_per_bank=64, row_bits=8192), ranks=2
        )
        mapper = AddressMapper(geometry=geometry, channels=channels)
        mapper.decode(mapper.capacity_bytes - 1)
        for address in (-1, mapper.capacity_bytes, mapper.capacity_bytes + 64):
            with pytest.raises(ValueError, match="outside module capacity"):
                mapper.decode(address)

    def test_row_overflow_rejected(self):
        # 12-bit chip rows: the chip capacity (2 x 12 bits = 3 bytes) exceeds
        # banks x rows x whole row bytes (2 bytes), so the last byte decodes
        # to a row past the end of the bank.
        geometry = ModuleGeometry(
            chip=DRAMGeometry(banks=2, rows_per_bank=1, row_bits=12), chips_per_rank=1
        )
        mapper = AddressMapper(geometry=geometry, column_bytes=1)
        assert mapper.capacity_bytes == 3
        assert mapper.decode(1).row == 0
        with pytest.raises(ValueError, match="beyond 1 rows per bank"):
            mapper.decode(2)

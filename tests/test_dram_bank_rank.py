"""Tests for the bank/rank state machines and JEDEC timing enforcement."""

from __future__ import annotations

import pytest

from repro.dram.bank import Bank, BankState
from repro.dram.commands import CommandType, DRAMCommand
from repro.dram.rank import Rank
from repro.dram.timing import DDR3_1600_11_11_11

TIMING = DDR3_1600_11_11_11


class TestCommands:
    def test_command_classification(self):
        assert CommandType.ACTIVATE.opens_row
        assert CommandType.READ.is_column_command
        assert CommandType.CODIC.is_row_command
        assert not CommandType.READ.is_row_command

    def test_dram_command_validation(self):
        with pytest.raises(ValueError):
            DRAMCommand(CommandType.READ, bank=-1)
        command = DRAMCommand(CommandType.READ, bank=1, row=2)
        other = DRAMCommand(CommandType.WRITE, bank=1, row=9)
        assert command.same_bank(other)


class TestBank:
    def test_activate_then_read_respects_trcd(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=7)
        assert bank.state is BankState.ACTIVE
        assert bank.is_open(7)
        earliest_read = bank.earliest_issue_time(CommandType.READ, 0.0)
        assert earliest_read == pytest.approx(TIMING.tRCD_ns)

    def test_read_without_open_row_rejected(self):
        bank = Bank(timing=TIMING)
        with pytest.raises(ValueError):
            bank.earliest_issue_time(CommandType.READ, 0.0)

    def test_double_activate_rejected(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        with pytest.raises(ValueError):
            bank.earliest_issue_time(CommandType.ACTIVATE, 100.0)

    def test_precharge_respects_tras(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        assert bank.earliest_issue_time(CommandType.PRECHARGE, 0.0) == pytest.approx(
            TIMING.tRAS_ns
        )

    def test_activate_to_activate_respects_trc(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        bank.issue(CommandType.PRECHARGE, TIMING.tRAS_ns)
        earliest = bank.earliest_issue_time(CommandType.ACTIVATE, 0.0)
        assert earliest >= TIMING.tRC_ns - 1e-9

    def test_timing_violation_raises(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        with pytest.raises(ValueError):
            bank.issue(CommandType.READ, 1.0)  # before tRCD

    def test_write_recovery_before_precharge(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        data_end = bank.issue(CommandType.WRITE, TIMING.tRCD_ns)
        earliest_pre = bank.earliest_issue_time(CommandType.PRECHARGE, 0.0)
        assert earliest_pre >= data_end + TIMING.tWR_ns - 1e-9

    def test_codic_leaves_bank_precharged(self):
        bank = Bank(timing=TIMING)
        completion = bank.issue(CommandType.CODIC, 0.0, row=4)
        assert bank.state is BankState.IDLE
        assert completion == pytest.approx(TIMING.tRAS_ns)
        assert bank.earliest_issue_time(CommandType.ACTIVATE, 0.0) >= completion + TIMING.tRP_ns - 1e-9

    def test_rowclone_occupies_two_row_cycles(self):
        bank = Bank(timing=TIMING)
        completion = bank.issue(CommandType.ROWCLONE_COPY, 0.0, row=4)
        assert completion == pytest.approx(2 * TIMING.tRAS_ns)

    def test_refresh_blocks_activates_for_trfc(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.REFRESH, 0.0)
        assert bank.earliest_issue_time(CommandType.ACTIVATE, 0.0) >= TIMING.tRFC_ns

    def test_read_with_autoprecharge_closes_row(self):
        bank = Bank(timing=TIMING)
        bank.issue(CommandType.ACTIVATE, 0.0, row=1)
        bank.issue(CommandType.READ_AP, TIMING.tRCD_ns)
        assert bank.state is BankState.IDLE


class TestRank:
    def test_trrd_between_banks(self):
        rank = Rank(timing=TIMING, num_banks=8)
        rank.issue(CommandType.ACTIVATE, 0, 0.0, row=1)
        earliest = rank.earliest_issue_time(CommandType.ACTIVATE, 1, 0.0)
        assert earliest == pytest.approx(TIMING.tRRD_ns)

    def test_tfaw_limits_burst_of_activations(self):
        rank = Rank(timing=TIMING, num_banks=8)
        issue = 0.0
        for bank in range(4):
            issue = rank.earliest_issue_time(CommandType.ACTIVATE, bank, issue)
            rank.issue(CommandType.ACTIVATE, bank, issue, row=0)
        fifth = rank.earliest_issue_time(CommandType.ACTIVATE, 4, 0.0)
        first_issue = 0.0
        assert fifth >= first_issue + TIMING.tFAW_ns - 1e-9

    def test_codic_commands_subject_to_tfaw(self):
        rank = Rank(timing=TIMING, num_banks=8)
        issue = 0.0
        for bank in range(4):
            issue = rank.earliest_issue_time(CommandType.CODIC, bank, issue)
            rank.issue(CommandType.CODIC, bank, issue, row=0)
        fifth = rank.earliest_issue_time(CommandType.CODIC, 4, 0.0)
        assert fifth >= TIMING.tFAW_ns - 1e-9

    def test_rank_timing_violation_raises(self):
        rank = Rank(timing=TIMING, num_banks=8)
        rank.issue(CommandType.ACTIVATE, 0, 0.0, row=1)
        with pytest.raises(ValueError):
            rank.issue(CommandType.ACTIVATE, 1, 1.0, row=1)

    def test_sustained_interval_bounds(self):
        rank = Rank(timing=TIMING, num_banks=8)
        interval = rank.sustained_activation_interval_ns(TIMING.tRAS_ns)
        # With 8 banks, the tFAW constraint (30/4 = 7.5 ns) dominates.
        assert interval == pytest.approx(TIMING.tFAW_ns / 4.0)

    def test_reads_not_subject_to_tfaw(self):
        rank = Rank(timing=TIMING, num_banks=2)
        rank.issue(CommandType.ACTIVATE, 0, 0.0, row=1)
        earliest_read = rank.earliest_issue_time(CommandType.READ, 0, TIMING.tRCD_ns)
        assert earliest_read == pytest.approx(TIMING.tRCD_ns)


def _prepared(command: CommandType, issue):
    """Put bank 0 where ``command`` is legal state-wise but not yet in time.

    ``issue(command, at_ns, row)`` issues on bank 0 of a Bank or a Rank.
    """
    if command in (CommandType.READ, CommandType.WRITE, CommandType.PRECHARGE):
        issue(CommandType.ACTIVATE, 0.0, 1)  # tRCD / tRAS pending
    elif command is CommandType.ACTIVATE:
        issue(CommandType.ACTIVATE, 0.0, 1)
        issue(CommandType.PRECHARGE, TIMING.tRAS_ns, None)  # tRC / tRP pending
    else:
        issue(CommandType.CODIC, 0.0, 1)  # occupancy + tRP pending


def _bank_snapshot(bank: Bank) -> tuple:
    return (bank.state, bank.open_row, bank.next_activate_ns, bank.next_precharge_ns,
            bank.next_read_ns, bank.next_write_ns, bank.last_activate_ns,
            bank.last_read_data_end_ns, bank.last_write_data_end_ns)


COMMAND_CLASSES = [
    CommandType.READ, CommandType.WRITE, CommandType.ACTIVATE, CommandType.PRECHARGE,
    CommandType.CODIC, CommandType.ROWCLONE_COPY, CommandType.REFRESH,
]


class TestTimingChecksOnTheFastPath:
    """Both issue paths refuse a command 1 ns early and leave state untouched."""

    @pytest.mark.parametrize("command", COMMAND_CLASSES)
    def test_bank_issue_one_ns_early_raises(self, command):
        bank = Bank(timing=TIMING)
        _prepared(command, lambda cmd, at, row: bank.issue(cmd, at, row=row))
        earliest = bank.earliest_issue_time(command, 0.0)
        assert earliest > 1.0
        before = _bank_snapshot(bank)
        with pytest.raises(ValueError):
            bank.issue(command, earliest - 1.0, row=2)
        assert _bank_snapshot(bank) == before
        bank.issue(command, earliest, row=2)

    @pytest.mark.parametrize("command", COMMAND_CLASSES)
    def test_rank_issue_one_ns_early_raises(self, command):
        rank = Rank(timing=TIMING, num_banks=4)
        _prepared(command, lambda cmd, at, row: rank.issue(cmd, 0, at, row=row))
        earliest = rank.earliest_issue_time(command, 0, 0.0)
        assert earliest > 1.0
        before = ([_bank_snapshot(bank) for bank in rank.banks],
                  list(rank._recent_activations), rank._last_activation_ns)
        with pytest.raises(ValueError):
            rank.issue(command, 0, earliest - 1.0, row=2)
        after = ([_bank_snapshot(bank) for bank in rank.banks],
                 list(rank._recent_activations), rank._last_activation_ns)
        assert after == before
        rank.issue(command, 0, earliest, row=2)

    @pytest.mark.parametrize(
        "command",
        [CommandType.ACTIVATE, CommandType.CODIC, CommandType.ROWCLONE_COPY,
         CommandType.REFRESH],
    )
    def test_rank_only_constraints_checked(self, command):
        # Bank 1 is idle; only tRRD after bank 0's activation holds it back.
        rank = Rank(timing=TIMING, num_banks=4)
        rank.issue(CommandType.ACTIVATE, 0, 0.0, row=1)
        assert rank.banks[1].earliest_issue_time(command, 0.0) == 0.0
        earliest = rank.earliest_issue_time(command, 1, 0.0)
        assert earliest == pytest.approx(TIMING.tRRD_ns)
        with pytest.raises(ValueError):
            rank.issue(command, 1, earliest - 1.0, row=2)
        rank.issue(command, 1, earliest, row=2)

    def test_tfaw_checked_on_issue(self):
        rank = Rank(timing=TIMING, num_banks=8)
        issue = 0.0
        for bank in range(4):
            issue = rank.earliest_issue_time(CommandType.ACTIVATE, bank, issue)
            rank.issue(CommandType.ACTIVATE, bank, issue, row=0)
        fifth = rank.earliest_issue_time(CommandType.ACTIVATE, 4, 0.0)
        assert fifth == pytest.approx(TIMING.tFAW_ns)
        with pytest.raises(ValueError):
            rank.issue(CommandType.ACTIVATE, 4, fifth - 1.0, row=0)

    @pytest.mark.parametrize("path", ["bank", "rank"])
    def test_state_errors_kept(self, path):
        bank = Bank(timing=TIMING)
        rank = Rank(timing=TIMING, num_banks=1)
        issue = ((lambda cmd, at, row=None: bank.issue(cmd, at, row=row)) if path == "bank"
                 else (lambda cmd, at, row=None: rank.issue(cmd, 0, at, row=row)))
        with pytest.raises(ValueError, match="no row is open"):
            issue(CommandType.READ, 100.0)
        with pytest.raises(ValueError, match="activate requires a row"):
            issue(CommandType.ACTIVATE, 0.0)
        issue(CommandType.ACTIVATE, 0.0, 3)
        with pytest.raises(ValueError, match="already open"):
            issue(CommandType.ACTIVATE, 1000.0, 4)
        with pytest.raises(ValueError, match="cannot time"):
            issue(CommandType.MODE_REGISTER_SET, 1000.0)

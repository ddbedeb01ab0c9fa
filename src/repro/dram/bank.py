"""Bank state machine with JEDEC timing enforcement.

A :class:`Bank` tracks which row (if any) is open and the earliest time each
command type may legally be issued, given the timing parameters.  The memory
controller asks ``earliest_issue_time`` (through its
:class:`~repro.dram.rank.Rank`) before scheduling a command and issues it once
it commits to it: ``issue`` checks the time and then ``apply`` updates the
state, and ``Rank.issue`` checks bank and rank constraints together before
calling ``apply``.  Both the cycle-level simulator and the analytic
throughput models build on these rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.commands import CommandType
from repro.dram.timing import TimingParameters


# Command types as module globals: every command passes these identity
# tests, and a global is cheaper to load than an attribute of the Enum class.
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_PRECHARGE_ALL = CommandType.PRECHARGE_ALL
_READ = CommandType.READ
_READ_AP = CommandType.READ_AP
_WRITE = CommandType.WRITE
_WRITE_AP = CommandType.WRITE_AP
_REFRESH = CommandType.REFRESH
_CODIC = CommandType.CODIC
_ROWCLONE_COPY = CommandType.ROWCLONE_COPY
_LISA_COPY = CommandType.LISA_COPY


class BankState(enum.Enum):
    """State of one DRAM bank."""

    IDLE = "idle"          # precharged, no row open
    ACTIVE = "active"      # a row is open in the row buffer


@dataclass
class Bank:
    """Timing/state model of one bank."""

    timing: TimingParameters
    state: BankState = BankState.IDLE
    open_row: int | None = None

    # Earliest times (ns) at which the next command of each family may issue.
    next_activate_ns: float = 0.0
    next_precharge_ns: float = 0.0
    next_read_ns: float = 0.0
    next_write_ns: float = 0.0

    # Bookkeeping of the last issued commands (for tRAS / tWR accounting).
    last_activate_ns: float = field(default=-1e18)
    last_write_data_end_ns: float = field(default=-1e18)
    last_read_data_end_ns: float = field(default=-1e18)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_open(self, row: int) -> bool:
        """True when ``row`` is currently open in the row buffer."""
        return self.state is BankState.ACTIVE and self.open_row == row

    def earliest_issue_time(self, command: CommandType, now_ns: float) -> float:
        """Earliest legal issue time for ``command``, not before ``now_ns``.

        Each command family reads one next-legal-time attribute; the chain of
        identity tests is ordered by how often the controller issues them.
        """
        if command is _READ or command is _READ_AP:
            if self.state is not BankState.ACTIVE:
                raise ValueError(f"cannot issue {command.value}: no row is open")
            earliest = self.next_read_ns
        elif command is _WRITE or command is _WRITE_AP:
            if self.state is not BankState.ACTIVE:
                raise ValueError(f"cannot issue {command.value}: no row is open")
            earliest = self.next_write_ns
        elif command is _ACTIVATE:
            if self.state is BankState.ACTIVE:
                raise ValueError("cannot activate: a row is already open")
            earliest = self.next_activate_ns
        elif command is _PRECHARGE or command is _PRECHARGE_ALL:
            earliest = self.next_precharge_ns
        elif (
            command is _CODIC
            or command is _ROWCLONE_COPY
            or command is _LISA_COPY
            or command is _REFRESH
        ):
            earliest = self.next_activate_ns
        else:
            raise ValueError(f"bank cannot time command {command!r}")
        return earliest if earliest > now_ns else now_ns

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(self, command: CommandType, issue_ns: float, row: int | None = None) -> float:
        """Issue ``command`` at ``issue_ns``; returns the command's completion time.

        The caller is responsible for having checked ``earliest_issue_time``;
        issuing earlier raises, which is how the tests verify that the
        controller respects JEDEC timings.
        """
        earliest = self.earliest_issue_time(command, issue_ns)
        if issue_ns + 1e-9 < earliest:
            raise ValueError(
                f"{command.value} issued at {issue_ns:.2f} ns violates timing "
                f"(earliest legal time is {earliest:.2f} ns)"
            )
        return self.apply(command, issue_ns, row)

    def apply(self, command: CommandType, issue_ns: float, row: int | None = None) -> float:
        """Update the bank state for ``command`` issued at ``issue_ns``.

        Performs no timing check: callers (:meth:`issue` and
        :meth:`repro.dram.rank.Rank.issue`) have already compared
        ``issue_ns`` against the earliest legal time.
        """
        if command is _READ:
            return self._issue_read(issue_ns, auto_precharge=False)
        if command is _WRITE:
            return self._issue_write(issue_ns, auto_precharge=False)
        if command is _ACTIVATE:
            return self._issue_activate(issue_ns, row)
        if command is _PRECHARGE or command is _PRECHARGE_ALL:
            return self._issue_precharge(issue_ns)
        t = self.timing
        if command is _CODIC:
            return self._issue_row_granular(issue_ns, occupancy_ns=t.tRAS_ns)
        if command is _ROWCLONE_COPY:
            # RowClone-FPM: ACT(src) -> ACT(dst) -> PRE, roughly two row cycles
            # minus the overlapped precharge (Seshadri et al., MICRO'13).
            return self._issue_row_granular(issue_ns, occupancy_ns=2 * t.tRAS_ns)
        if command is _LISA_COPY:
            # LISA: row-buffer movement between adjacent subarrays; slightly
            # slower than RowClone-FPM across arbitrary subarrays.
            return self._issue_row_granular(issue_ns, occupancy_ns=2.5 * t.tRAS_ns)
        if command is _READ_AP:
            return self._issue_read(issue_ns, auto_precharge=True)
        if command is _WRITE_AP:
            return self._issue_write(issue_ns, auto_precharge=True)
        if command is _REFRESH:
            return self._issue_refresh(issue_ns)
        raise ValueError(f"bank cannot issue command {command!r}")

    # ------------------------------------------------------------------
    # Per-command rules
    # ------------------------------------------------------------------
    def _issue_activate(self, issue_ns: float, row: int | None) -> float:
        if row is None:
            raise ValueError("activate requires a row")
        t = self.timing
        self.state = BankState.ACTIVE
        self.open_row = row
        self.last_activate_ns = issue_ns
        self.next_read_ns = max(self.next_read_ns, issue_ns + t.tRCD_ns)
        self.next_write_ns = max(self.next_write_ns, issue_ns + t.tRCD_ns)
        self.next_precharge_ns = max(self.next_precharge_ns, issue_ns + t.tRAS_ns)
        self.next_activate_ns = max(self.next_activate_ns, issue_ns + t.tRC_ns)
        return issue_ns + t.tRCD_ns

    def _issue_row_granular(self, issue_ns: float, occupancy_ns: float) -> float:
        """Row-granular in-DRAM operation (CODIC / RowClone / LISA).

        The operation occupies the bank like an activation and leaves the
        bank precharged when it completes (these commands embed their own
        precharge), so the next activation may follow after
        ``occupancy_ns + tRP``.
        """
        t = self.timing
        completion = issue_ns + occupancy_ns
        self.state = BankState.IDLE
        self.open_row = None
        self.last_activate_ns = issue_ns
        self.next_activate_ns = max(self.next_activate_ns, completion + t.tRP_ns)
        self.next_precharge_ns = max(self.next_precharge_ns, completion)
        self.next_read_ns = max(self.next_read_ns, completion + t.tRP_ns)
        self.next_write_ns = max(self.next_write_ns, completion + t.tRP_ns)
        return completion

    def _issue_precharge(self, issue_ns: float) -> float:
        t = self.timing
        self.state = BankState.IDLE
        self.open_row = None
        completion = issue_ns + t.tRP_ns
        self.next_activate_ns = max(self.next_activate_ns, completion)
        return completion

    def _issue_read(self, issue_ns: float, auto_precharge: bool) -> float:
        t = self.timing
        data_end = issue_ns + t.CL_ns + t.burst_time_ns
        self.last_read_data_end_ns = data_end
        self.next_read_ns = max(self.next_read_ns, issue_ns + t.tCCD_ns)
        self.next_write_ns = max(self.next_write_ns, data_end + t.tWTR_ns)
        self.next_precharge_ns = max(self.next_precharge_ns, issue_ns + t.tRTP_ns)
        if auto_precharge:
            precharge_start = max(issue_ns + t.tRTP_ns, self.last_activate_ns + t.tRAS_ns)
            self.state = BankState.IDLE
            self.open_row = None
            self.next_activate_ns = max(self.next_activate_ns, precharge_start + t.tRP_ns)
        return data_end

    def _issue_write(self, issue_ns: float, auto_precharge: bool) -> float:
        t = self.timing
        data_end = issue_ns + t.CWL_ns + t.burst_time_ns
        self.last_write_data_end_ns = data_end
        self.next_write_ns = max(self.next_write_ns, issue_ns + t.tCCD_ns)
        self.next_read_ns = max(self.next_read_ns, data_end + t.tWTR_ns)
        self.next_precharge_ns = max(self.next_precharge_ns, data_end + t.tWR_ns)
        if auto_precharge:
            precharge_start = max(
                data_end + t.tWR_ns, self.last_activate_ns + t.tRAS_ns
            )
            self.state = BankState.IDLE
            self.open_row = None
            self.next_activate_ns = max(self.next_activate_ns, precharge_start + t.tRP_ns)
        return data_end

    def _issue_refresh(self, issue_ns: float) -> float:
        t = self.timing
        self.state = BankState.IDLE
        self.open_row = None
        completion = issue_ns + t.tRFC_ns
        self.next_activate_ns = max(self.next_activate_ns, completion)
        self.next_precharge_ns = max(self.next_precharge_ns, completion)
        return completion

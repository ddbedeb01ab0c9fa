"""Memory requests exchanged between cores/caches and the memory controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.dram.address import AddressMapper, DecodedAddress


class RequestType(enum.Enum):
    """Kinds of requests the controller accepts."""

    READ = "read"
    WRITE = "write"
    #: Row-granular in-DRAM zeroing via a CODIC command (CODIC-det).
    CODIC_ZERO_ROW = "codic_zero_row"
    #: Row-granular in-DRAM copy of an all-zero source row (RowClone-FPM).
    ROWCLONE_ZERO_ROW = "rowclone_zero_row"
    #: Row-granular in-DRAM copy through the LISA inter-subarray links.
    LISA_ZERO_ROW = "lisa_zero_row"

    @property
    def is_row_granular(self) -> bool:
        """Whether the request operates on a whole DRAM row."""
        return (
            self is RequestType.CODIC_ZERO_ROW
            or self is RequestType.ROWCLONE_ZERO_ROW
            or self is RequestType.LISA_ZERO_ROW
        )

    @property
    def needs_data_bus(self) -> bool:
        """Whether the request transfers data over the memory channel."""
        return self is RequestType.READ or self is RequestType.WRITE


_request_ids = itertools.count()


@dataclass
class MemoryRequest:
    """One request in flight through the memory system."""

    request_type: RequestType
    address: int
    arrival_ns: float
    core_id: int = 0
    request_id: int = field(default_factory=_request_ids.__next__)

    # Filled in by the controller.
    issue_ns: float | None = None
    completion_ns: float | None = None
    #: DRAM coordinates of ``address``, decoded once on first use.
    decoded: DecodedAddress | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.arrival_ns < 0:
            raise ValueError("arrival_ns must be non-negative")

    def coordinates(self, mapper: AddressMapper) -> DecodedAddress:
        """DRAM coordinates of ``address`` under ``mapper``, decoded on first use.

        A request is serviced by one controller, so its first decode holds
        for every later scheduling decision.
        """
        decoded = self.decoded
        if decoded is None:
            decoded = self.decoded = mapper.decode(self.address)
        return decoded

    @property
    def latency_ns(self) -> float:
        """Total latency from arrival to completion (requires completion)."""
        if self.completion_ns is None:
            raise ValueError("request has not completed yet")
        return self.completion_ns - self.arrival_ns

    @property
    def is_complete(self) -> bool:
        """Whether the controller has finished servicing this request."""
        return self.completion_ns is not None

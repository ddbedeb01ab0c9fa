"""The fleet verifier: an array-native store of golden responses.

During enrollment the verifier evaluates each device's challenges once at the
reference temperature and stores the *golden* responses.  The store is
array-native in the same sense as the response pipeline
(:mod:`repro.puf.positions`): all golden position sets live concatenated in
one growable ``int64`` buffer, with a slot table mapping
``(device_id, challenge_index)`` to its ``[start, stop)`` slice -- no Python
sets, no per-response ndarray objects.

Because golden responses are pure functions of the fleet config (device
``i``'s ``k``-th golden response is the PUF evaluated on the challenge at
stream ``("challenge", i, k)`` with the noise stream ``("enroll", i, k)``),
the verifier can enroll **lazily**: a traffic shard that authenticates
against device 8231 materializes that device's golden responses on first use
and still produces exactly the values a fleet-wide eager enrollment would
have stored.  Eager enrollment (:meth:`FleetVerifier.enroll_range`) exists
for the device-partitioned :class:`~repro.engine.jobs.FleetEnrollJob`, whose
blocks travel as the store's one payload form: the numpy arrays of
:meth:`GoldenStore.to_arrays`, merged by concatenation
(:meth:`GoldenStore.merge_arrays`) and installed with
:meth:`GoldenStore.install_arrays`.  Only the engine's cache encoder turns
them into lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.fleet.devices import DeviceFleet
from repro.puf.base import PUFResponse
from repro.puf.positions import jaccard_index_arrays, positions_equal

#: Initial capacity of the store's position buffer.
_INITIAL_CAPACITY = 256


class GoldenStore:
    """Array-native storage of golden responses.

    One growable sorted-positions buffer plus a slot table; ``get`` returns a
    read-only slice (zero copies on the verification hot path).
    """

    __slots__ = ("_positions", "_size", "_slots")

    def __init__(self) -> None:
        self._positions = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0
        self._slots: dict[tuple[int, int], tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._slots

    @property
    def total_positions(self) -> int:
        """Total stored golden positions across all slots."""
        return self._size

    def add(
        self, device_id: int, challenge_index: int, positions: np.ndarray
    ) -> None:
        """Store one golden position array (sorted unique ``int64``)."""
        key = (device_id, challenge_index)
        if key in self._slots:
            raise KeyError(f"golden response for {key} already enrolled")
        block = np.asarray(positions, dtype=np.int64)
        needed = self._size + block.size
        if needed > self._positions.size:
            capacity = max(self._positions.size * 2, needed, _INITIAL_CAPACITY)
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = self._positions[: self._size]
            self._positions = grown
        self._positions[self._size : needed] = block
        self._slots[key] = (self._size, needed)
        self._size = needed

    def get(self, device_id: int, challenge_index: int) -> np.ndarray | None:
        """Read-only golden position slice, or ``None`` when not enrolled."""
        slot = self._slots.get((device_id, challenge_index))
        if slot is None:
            return None
        view = self._positions[slot[0] : slot[1]]
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------
    # Payloads: numpy arrays; lists only in the engine's cache encoder
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Slots in insertion order as array-native ``{"keys", "counts",
        "positions"}``.

        The one payload form: ``keys`` is an ``(n, 2)`` int64 array of
        ``(device_id, challenge_index)`` rows, ``counts`` the per-slot
        position counts, ``positions`` a copy of the occupied buffer.
        Concatenating the arrays of two stores (in order) is the payload of
        the store holding both blocks.
        """
        count = len(self._slots)
        keys = np.fromiter(
            (component for key in self._slots for component in key),
            dtype=np.int64,
            count=2 * count,
        ).reshape(count, 2)
        counts = np.fromiter(
            (stop - start for start, stop in self._slots.values()),
            dtype=np.int64,
            count=count,
        )
        return {
            "keys": keys,
            "counts": counts,
            "positions": self._positions[: self._size].copy(),
        }

    def install_arrays(
        self,
        keys: "np.ndarray | list",
        counts: "np.ndarray | list",
        positions: "np.ndarray | list",
    ) -> int:
        """Install payload slots this store does not hold yet; returns how many.

        Already-present keys are skipped without comparison: golden responses
        are pure functions of the fleet config, so an existing slot
        necessarily holds the same values -- which is what lets a lazily
        warmed traffic verifier absorb a :class:`~repro.engine.jobs.
        FleetEnrollJob` payload idempotently.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        counts = np.asarray(counts, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if counts.size != keys.shape[0] or int(counts.sum()) != positions.size:
            raise ValueError(
                f"golden payload is inconsistent: {keys.shape[0]} keys, "
                f"{counts.size} counts covering {int(counts.sum())} positions, "
                f"{positions.size} positions provided"
            )
        starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        installed = 0
        for index in range(keys.shape[0]):
            key = (int(keys[index, 0]), int(keys[index, 1]))
            if key in self._slots:
                continue
            self.add(key[0], key[1], positions[starts[index] : starts[index + 1]])
            installed += 1
        return installed

    @staticmethod
    def merge_arrays(payloads: "Iterable[dict[str, Any]]") -> dict[str, np.ndarray]:
        """Concatenate enrollment-block array payloads, in the given order."""
        payloads = list(payloads)
        shapes = {"keys": (-1, 2), "counts": (-1,), "positions": (-1,)}
        return {
            name: np.concatenate(
                [np.empty(0, dtype=np.int64).reshape(shape)]
                + [np.asarray(p[name], dtype=np.int64).reshape(shape) for p in payloads]
            )
            for name, shape in shapes.items()
        }


@dataclass
class FleetVerifier:
    """Enrollment registry plus golden-response matcher for one fleet."""

    fleet: DeviceFleet
    store: GoldenStore = field(default_factory=GoldenStore)

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, device_id: int, challenge_index: int) -> np.ndarray:
        """Enroll one (device, challenge): evaluate and store the golden."""
        config = self.fleet.config
        device = self.fleet.device(device_id)
        response = device.evaluate(
            self.fleet.challenge(device_id, challenge_index),
            config.enroll_temperature_c,
            rng=self.fleet.enrollment_rng(device_id, challenge_index),
        )
        self.store.add(device_id, challenge_index, response.position_array)
        return self.store.get(device_id, challenge_index)

    def enroll_device(self, device_id: int) -> None:
        """Enroll every challenge of one device."""
        for challenge_index in range(self.fleet.config.challenges_per_device):
            self.enroll(device_id, challenge_index)

    def enroll_range(self, start: int, stop: int) -> None:
        """Enroll devices ``[start, stop)`` (the device-partition unit)."""
        if not 0 <= start <= stop <= self.fleet.config.devices:
            raise ValueError(
                f"invalid device range [{start}, {stop}) for "
                f"{self.fleet.config.devices} devices"
            )
        for device_id in range(start, stop):
            self.enroll_device(device_id)

    def golden(self, device_id: int, challenge_index: int) -> np.ndarray:
        """Golden positions of one (device, challenge), enrolling lazily.

        Lazy enrollment stores exactly the array an eager fleet-wide
        enrollment would have stored (golden responses are functions of the
        fleet config alone), so shards may materialize only the devices their
        requests touch.
        """
        golden = self.store.get(device_id, challenge_index)
        if golden is None:
            golden = self.enroll(device_id, challenge_index)
        return golden

    def warm(self, payload: dict[str, Any]) -> int:
        """Absorb a pre-enrolled golden arrays payload (:meth:`GoldenStore.to_arrays`).

        Installs every slot the store does not hold yet and returns how many
        were added.  Because golden responses are pure functions of the
        fleet config, warming is bit-identical to lazy enrollment -- it only
        moves the evaluation cost to whoever produced the payload (e.g. a
        sharded :class:`~repro.engine.jobs.FleetEnrollJob`).
        """
        return self.store.install_arrays(
            payload["keys"], payload["counts"], payload["positions"]
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def similarity(
        self, device_id: int, challenge_index: int, response: PUFResponse
    ) -> float:
        """Jaccard similarity of a candidate response to the golden one."""
        return jaccard_index_arrays(
            self.golden(device_id, challenge_index), response.position_array
        )

    def verify(
        self,
        device_id: int,
        challenge_index: int,
        response: PUFResponse,
        acceptance_threshold: float = 1.0,
    ) -> bool:
        """Accept or reject a candidate response.

        Mirrors :class:`repro.puf.authentication.AuthenticationProtocol`:
        a threshold of ``1.0`` is exact matching, anything lower accepts at
        ``jaccard >= threshold``.
        """
        if not 0.0 <= acceptance_threshold <= 1.0:
            raise ValueError(
                "acceptance_threshold must be in [0, 1], got "
                f"{acceptance_threshold}"
            )
        golden = self.golden(device_id, challenge_index)
        if acceptance_threshold >= 1.0:
            return positions_equal(golden, response.position_array)
        return (
            jaccard_index_arrays(golden, response.position_array)
            >= acceptance_threshold
        )

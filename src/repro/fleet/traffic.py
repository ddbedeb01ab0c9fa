"""Authentication traffic: replayable request streams over a device fleet.

A *traffic stream* is a deterministic sequence of authentication requests
against a fleet.  Request ``i`` draws everything it needs -- which device is
being authenticated, which of its enrolled challenges is presented, whether
the presenter is an impostor (a different device replaying the challenge),
the request's temperature jitter and its aging drift -- from the dedicated
stream ``("fleet", "traffic", i)`` of the fleet's
:class:`~repro.utils.rng.StreamTree`.  Exactly like the figure pair kernels,
that per-request addressing makes any contiguous block ``[start, stop)``
evaluable in isolation: concatenating block results in index order is
bit-identical to a serial replay, for every partition and worker count.

Each request records the Jaccard similarity between the presented response
and the verifier's golden response (1.0 if and only if they match exactly).
FAR/FRR then fall out of the recorded similarities *for every acceptance
threshold at once*: ``FRR(t)`` is the fraction of genuine similarities below
``t`` and ``FAR(t)`` the fraction of impostor similarities at or above
``t`` -- which is how the ``fleet-roc`` experiment sweeps a whole ROC curve
from one traffic replay.

Aging and re-enrollment policy: a request's device age is drawn uniformly
from ``[0, aging_horizon_hours]``; with a re-enrollment interval ``R`` the
golden response is refreshed every ``R`` hours, so only the *residual* age
``age % R`` drifts the response away from the golden (the drift model is the
one :func:`repro.puf.evaluation.aging_pair` uses: a residual temperature
shift of ``min(10, 0.25 * hours)`` degrees).

Execution: :func:`authenticate_block` replays a block as a plain loop of
:func:`authenticate_request` calls, one request at a time in index order.
Each request's PUF evaluation (and any lazy golden enrollment it triggers)
runs the multi-read module kernels of :mod:`repro.dram.module`, so the loop
itself is never the cost centre.  With telemetry collection enabled every
request is timed whole -- provisioning, lazy enrollment, evaluation and
scoring -- into the ``fleet_auth_request_seconds`` histogram.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry
from repro.fleet.devices import DeviceFleet
from repro.fleet.verifier import FleetVerifier

#: Bound on the impostor-device redraw loop (mirrors
#: :data:`repro.puf.evaluation.MAX_INTER_CHALLENGE_REDRAWS`).
MAX_IMPOSTOR_REDRAWS = 256

#: Residual aging drift model shared with :func:`repro.puf.evaluation.
#: aging_pair`: degrees of temperature shift per residual hour, capped.
AGING_DRIFT_C_PER_HOUR = 0.25
AGING_DRIFT_CAP_C = 10.0


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one authentication traffic stream."""

    requests: int = 256
    #: Probability that a request is presented by an impostor device.
    impostor_ratio: float = 0.1
    #: Per-request temperature jitter, uniform in ``[-j, +j]`` degrees.
    temperature_jitter_c: float = 0.0
    #: Device ages are drawn uniformly from ``[0, horizon]`` hours
    #: (``0`` disables aging entirely).
    aging_horizon_hours: float = 0.0
    #: Golden responses are re-enrolled every this many hours (``0`` means
    #: never: the full drawn age drifts the device).
    reenroll_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ValueError(f"requests must be positive, got {self.requests}")
        if not 0.0 <= self.impostor_ratio <= 1.0:
            raise ValueError(
                f"impostor_ratio must be in [0, 1], got {self.impostor_ratio}"
            )
        if self.temperature_jitter_c < 0.0:
            raise ValueError(
                "temperature_jitter_c must be non-negative, got "
                f"{self.temperature_jitter_c}"
            )
        if self.aging_horizon_hours < 0.0:
            raise ValueError(
                "aging_horizon_hours must be non-negative, got "
                f"{self.aging_horizon_hours}"
            )
        if self.reenroll_hours < 0.0:
            raise ValueError(
                f"reenroll_hours must be non-negative, got {self.reenroll_hours}"
            )

    def to_config(self) -> dict[str, Any]:
        """JSON-safe form used inside engine job configs."""
        return {
            "requests": self.requests,
            "impostor_ratio": self.impostor_ratio,
            "temperature_jitter_c": self.temperature_jitter_c,
            "aging_horizon_hours": self.aging_horizon_hours,
            "reenroll_hours": self.reenroll_hours,
        }

    @classmethod
    def from_config(cls, payload: dict[str, Any]) -> "TrafficConfig":
        """Inverse of :meth:`to_config`."""
        return cls(**payload)


def authenticate_request(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    traffic: TrafficConfig,
    index: int,
) -> tuple[bool, float]:
    """Replay one authentication request: ``(is_impostor, similarity)``.

    The kernel consumes only the request's own stream (golden responses are
    evaluated on their independent enrollment streams), so the result depends
    exclusively on ``(fleet config, traffic config, index)``.
    """
    config = fleet.config
    rng = fleet.traffic_rng(index)
    device_id = int(rng.integers(0, config.devices))
    challenge_index = int(rng.integers(0, config.challenges_per_device))
    is_impostor = bool(rng.random() < traffic.impostor_ratio)
    jitter = float(
        rng.uniform(-traffic.temperature_jitter_c, traffic.temperature_jitter_c)
    )
    age_hours = float(rng.uniform(0.0, traffic.aging_horizon_hours))
    if traffic.reenroll_hours > 0.0:
        age_hours = age_hours % traffic.reenroll_hours
    drift = min(AGING_DRIFT_CAP_C, AGING_DRIFT_C_PER_HOUR * age_hours)
    temperature_c = config.enroll_temperature_c + jitter + drift

    challenge = fleet.challenge(device_id, challenge_index)
    if is_impostor:
        if config.devices < 2:
            raise ValueError(
                "impostor traffic requires a fleet of at least two devices"
            )
        presenter_id = int(rng.integers(0, config.devices))
        redraws = 0
        while presenter_id == device_id:
            redraws += 1
            if redraws > MAX_IMPOSTOR_REDRAWS:
                raise ValueError(
                    "cannot draw a distinct impostor device after "
                    f"{MAX_IMPOSTOR_REDRAWS} attempts; the request stream "
                    "is broken"
                )
            presenter_id = int(rng.integers(0, config.devices))
    else:
        presenter_id = device_id
    presenter = fleet.device(presenter_id)
    response = presenter.evaluate(challenge, temperature_c, rng=rng)
    return is_impostor, verifier.similarity(device_id, challenge_index, response)


def authenticate_block(
    fleet: DeviceFleet,
    verifier: FleetVerifier,
    traffic: TrafficConfig,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay requests ``[start, stop)``: ``(genuine, impostor)`` similarities.

    Each returned ``float64`` array keeps its category's request-index order,
    so concatenating block results (in block order) reproduces the full
    stream's arrays exactly.  With telemetry collection enabled each request
    is timed whole (one clock pair per request) and the block is wrapped in a
    ``fleet.auth_block`` span; timing never touches the RNG streams, so the
    recorded similarities are identical either way.
    """
    if not 0 <= start <= stop <= traffic.requests:
        raise ValueError(
            f"invalid request range [{start}, {stop}) for "
            f"{traffic.requests} requests"
        )
    if traffic.impostor_ratio > 0.0 and fleet.config.devices < 2:
        # Checked eagerly (not just on the first impostor draw) so every
        # block of a degenerate stream fails identically, whether or not
        # its request range happens to contain an impostor.
        raise ValueError(
            "impostor traffic requires a fleet of at least two devices"
        )
    genuine: list[float] = []
    impostor: list[float] = []
    latency = None
    scope = contextlib.nullcontext()
    if telemetry.collection_enabled():
        reg = telemetry.registry()
        latency = reg.histogram(telemetry.FLEET_AUTH_SECONDS)
        scope = telemetry.span("fleet.auth_block", kind="fleet", start=start, stop=stop)
    with scope:
        for index in range(start, stop):
            t0 = time.perf_counter()
            is_impostor, similarity = authenticate_request(
                fleet, verifier, traffic, index
            )
            if latency is not None:
                latency.observe(time.perf_counter() - t0)
            (impostor if is_impostor else genuine).append(similarity)
    if latency is not None:
        reg.counter(telemetry.FLEET_AUTH_REQUESTS).inc(stop - start)
    return (
        np.asarray(genuine, dtype=np.float64),
        np.asarray(impostor, dtype=np.float64),
    )


@dataclass
class TrafficSummary:
    """FAR/FRR accounting over recorded traffic similarities."""

    genuine: np.ndarray
    impostor: np.ndarray

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TrafficSummary":
        """Build from the JSON-safe ``{"genuine", "impostor"}`` job value."""
        return cls(
            genuine=np.asarray(payload["genuine"], dtype=np.float64),
            impostor=np.asarray(payload["impostor"], dtype=np.float64),
        )

    @property
    def genuine_trials(self) -> int:
        """Number of genuine requests replayed."""
        return int(self.genuine.size)

    @property
    def impostor_trials(self) -> int:
        """Number of impostor requests replayed."""
        return int(self.impostor.size)

    def frr(self, acceptance_threshold: float) -> float:
        """False rejection rate at one threshold (0 with no genuine trials).

        A genuine request is rejected when its similarity falls below the
        threshold; at ``1.0`` this is exact matching (similarity 1.0 if and
        only if the position sets are equal).
        """
        if not self.genuine.size:
            return 0.0
        return float(np.mean(self.genuine < acceptance_threshold))

    def far(self, acceptance_threshold: float) -> float:
        """False acceptance rate at one threshold (0 with no impostor trials)."""
        if not self.impostor.size:
            return 0.0
        return float(np.mean(self.impostor >= acceptance_threshold))

    def genuine_mean(self) -> float:
        """Mean genuine similarity (0 with no genuine trials)."""
        return float(np.mean(self.genuine)) if self.genuine.size else 0.0

    def impostor_mean(self) -> float:
        """Mean impostor similarity (0 with no impostor trials)."""
        return float(np.mean(self.impostor)) if self.impostor.size else 0.0

"""Per-pass reference loops for the PUF ``evaluate`` kernels (test-only).

Every PUF class evaluates through a one-pass multi-read kernel of
:class:`repro.dram.module.DRAMModule`.  The loops here are the plain
formulation those kernels replace: one single-read module primitive per
filter pass, reduced with :func:`repro.puf.filtering.intersect_filter`, or,
for the DRAM Latency PUF, one filtered read per chip.  They live in the test
suite only, as byte-identity oracles for the kernels, and they draw
default-seeded noise and advance the ``_evaluations`` counter exactly as the
kernels do, so the two can be interleaved on one PUF instance.
"""

from __future__ import annotations

import numpy as np

from repro.dram.module import DRAMModule, SegmentAddress
from repro.puf.base import Challenge, PUFResponse
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.filtering import intersect_filter
from repro.puf.latency_puf import DRAMLatencyPUF
from repro.puf.prelat_puf import PreLatPUF
from repro.utils.rng import make_rng


def rcd_filtered_response_scalar(
    module: DRAMModule,
    segment: SegmentAddress,
    trcd_ns: float,
    reads: int,
    threshold: int,
    temperature_c: float = 30.0,
    rng: np.random.Generator | None = None,
    rank: int = 0,
) -> np.ndarray:
    """Per-chip loop for :meth:`DRAMModule.rcd_filtered_response`.

    Each chip shifts its own failure profile and draws its own binomial
    counts; the per-chip results are offset and concatenated.
    """
    return module._aggregate(
        [
            chip.rcd_filtered_response(
                segment.bank, segment.row, trcd_ns, reads, threshold,
                temperature_c, rng,
            )
            for chip in module.rank_chips(rank)
        ]
    )


def _single_pass(
    puf: CODICSigPUF | PreLatPUF,
    challenge: Challenge,
    temperature_c: float,
    rng: np.random.Generator | None,
    pass_index: int,
) -> np.ndarray:
    """One raw read of a lightly filtered PUF (CODIC-sig or PreLatPUF)."""
    stream = "codic-sig" if isinstance(puf, CODICSigPUF) else "prelat-puf"
    if rng is None:
        puf._evaluations += 1
        rng = make_rng(puf.noise_seed, stream, puf._evaluations, pass_index)
    if isinstance(puf, CODICSigPUF):
        return puf.module.sig_response(
            challenge.segment, temperature_c=temperature_c, rng=rng
        )
    return puf.module.rp_response(
        challenge.segment, trp_ns=puf.trp_ns, temperature_c=temperature_c, rng=rng
    )


def evaluate_scalar(
    puf: CODICSigPUF | PreLatPUF | DRAMLatencyPUF,
    challenge: Challenge,
    temperature_c: float = 30.0,
    rng: np.random.Generator | None = None,
) -> PUFResponse:
    """Reference ``puf.evaluate``: the per-pass loop the kernel replaces."""
    if isinstance(puf, DRAMLatencyPUF):
        if rng is None:
            puf._evaluations += 1
            rng = make_rng(puf.noise_seed, "latency-puf", puf._evaluations)
        positions = rcd_filtered_response_scalar(
            puf.module,
            challenge.segment,
            trcd_ns=puf.trcd_ns,
            reads=puf.filter_reads,
            threshold=puf.filter_threshold,
            temperature_c=temperature_c,
            rng=rng,
        )
    else:
        observations = [
            _single_pass(puf, challenge, temperature_c, rng, pass_index)
            for pass_index in range(puf.filter_passes)
        ]
        if len(observations) == 1:
            positions = observations[0]
        else:
            positions = intersect_filter(observations)
    positions.setflags(write=False)
    return PUFResponse(
        position_array=positions, challenge=challenge, temperature_c=temperature_c
    )

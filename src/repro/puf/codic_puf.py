"""The CODIC-sig PUF (Section 5.1).

Evaluating the PUF on a segment consists of:

1. issuing a CODIC-sig command to every row of the segment (driving the
   cells to Vdd/2),
2. issuing a regular activation, which amplifies each cell to 0 or 1
   depending on process variation,
3. reading the segment and taking the addresses of the minority ('1') cells
   as the response.

Because the responses are highly stable, the PUF works with a lightweight
filter (a handful of repeated evaluations intersected together) or with no
filter at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.module import DRAMModule
from repro.puf.base import Challenge, PUFResponse
from repro.utils.rng import make_rng


@dataclass
class CODICSigPUF:
    """CODIC-sig based DRAM PUF."""

    module: DRAMModule
    #: Number of repeated evaluations combined by the lightweight filter.
    #: ``1`` disables filtering (the "w/o filter" configuration of Table 4).
    filter_passes: int = 5
    name: str = "CODIC-sig PUF"
    #: Seed stream for read noise (each evaluation draws fresh noise).
    noise_seed: int = 101

    #: Count of default-seeded raw evaluations; bookkeeping only, so it is
    #: excluded from equality and repr (cache fingerprints stay clean) and
    #: untouched when the caller supplies its own rng.
    _evaluations: int = field(default=0, compare=False, repr=False)

    def evaluation_passes(self) -> int:
        """Raw segment evaluations needed per response."""
        return self.filter_passes

    def evaluate(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """Evaluate the PUF on one challenge.

        Runs the multi-read counting kernel
        (:meth:`repro.dram.module.DRAMModule.sig_response_multi`): all
        ``filter_passes`` reads intersected in one pass.
        """
        passes = self.filter_passes
        if rng is None:
            # One default-seeded stream per pass, each advancing the
            # bookkeeping counter, so repeated calls draw fresh noise.
            rngs = []
            for pass_index in range(passes):
                self._evaluations += 1
                rngs.append(
                    make_rng(self.noise_seed, "codic-sig", self._evaluations, pass_index)
                )
        else:
            rngs = [rng] * passes
        positions = self.module.sig_response_multi(
            challenge.segment, passes, temperature_c=temperature_c, rngs=rngs
        )
        # Freshly built and unaliased: freeze in place so PUFResponse takes
        # the zero-copy fast path.
        positions.setflags(write=False)
        return PUFResponse(
            position_array=positions, challenge=challenge, temperature_c=temperature_c
        )

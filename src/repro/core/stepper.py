"""Step-centric staged execution: Gather → Move → Update.

ThunderRW (PAPERS.md) organises the random-walk hot loop around
*steps*: fetch the per-vertex state once per superstep (Gather), run
the sampling rounds and apply the resulting transitions (Move), then
advance bookkeeping — rejection streaks, the zero-mass guard (Update).

:class:`StepExecutor` is the only loop that samples for every engine
built on :class:`~repro.core.engine.WalkEngine`.  The Gather stage runs
once per superstep; retry rounds of step-paced programs reuse sliced
views of the same per-lane arrays, because a rejected walker has not
moved.  Each round is one call of the engine's ``_sample_round`` hook,
so the kernel choice, the baselines' own strategies and the cluster
simulator's per-node accounting all sit behind one seam.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import GatherContext, gather_stage

__all__ = ["StepExecutor"]


class StepExecutor:
    """Drives one engine's supersteps through the staged hot loop."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def run_iteration(self, survivors: np.ndarray) -> None:
        """Execute one superstep's sampling stages for ``survivors``.

        Trial-paced programs spend one round; step-paced programs loop
        until every pending walker resolved.
        """
        engine = self.engine
        obs = engine._stage_obs
        if obs is None:
            self._move(self._gather(survivors))
            return
        with obs.span(
            "stage.gather",
            track=engine._obs_track,
            args={"lanes": int(survivors.size)},
        ):
            ctx = self._gather(survivors)
        with obs.span("stage.move", track=engine._obs_track):
            self._move(ctx)

    def _gather(self, survivors: np.ndarray) -> GatherContext:
        """Gather stage: fetch per-lane vertex state once per superstep."""
        engine = self.engine
        return gather_stage(
            engine.tables, engine.walkers, survivors, engine.upper, engine.lower
        )

    def _move(self, ctx: GatherContext) -> None:
        """Move stage: sampling rounds until the superstep's pacing is
        satisfied (one round in trial mode, drain in step mode)."""
        engine = self.engine
        if engine.sync_mode == "trial":
            engine._sample_round(ctx)
            return
        while ctx.size:
            moved = engine._sample_round(ctx)
            if moved.all():
                break
            ctx = ctx.take(~moved)

"""Parallel scenario sweeps: many seeded trials across worker processes.

The paper's evaluation is a grid of trials — distances 1–6 m, 1–4 users,
orientations, postures, rates (Table I) — each an independent seeded
simulation.  ``run_scenarios`` fans a list of scenarios out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns results in
input order, with guarantees that make sweeps reproducible:

* **Ordering**: ``results[i]`` always corresponds to ``scenarios[i]``,
  regardless of which worker finished first.
* **Seed independence**: every trial gets its own explicit seed, so a
  trial's capture does not depend on worker scheduling, pool size, or
  whether the sweep ran in parallel at all — ``parallel=False`` produces
  the identical result list.
* **Telemetry round-trip**: each trial runs inside an isolated
  :func:`repro.obs.capture` session, and its :func:`repro.obs.snapshot`
  travels back with the result.  The parent merges them *in input order*
  (deterministic regardless of worker completion order), so stage
  timers, counters, and trace events recorded inside worker processes
  reach the parent's session.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ScenarioError
from .engine import SimulationResult, run_scenario
from .scenario import Scenario

#: One sweep job: (index, scenario, duration, seed, run_scenario kwargs,
#: tracer settings to reproduce inside the worker process).
_Job = Tuple[int, Scenario, float, Optional[int], Dict[str, Any],
             Dict[str, Any]]


def _run_one(job: _Job) -> Tuple[int, SimulationResult, dict]:
    """Run one sweep trial (module-level so it pickles to workers).

    Returns ``(index, result, telemetry)`` where ``telemetry`` is the
    trial's ``{"events", "metrics"}`` snapshot of an isolated
    :func:`repro.obs.capture` session — global tracer settings do not
    survive into spawned worker processes, so the parent's settings ride
    along in the job.
    """
    index, scenario, duration_s, seed, kwargs, obs_settings = job
    with obs.capture(detail=obs_settings["detail"],
                     wall_clock=obs_settings["wall_clock"]) as (tracer, _):
        tracer.configure(enabled=obs_settings["enabled"])
        result = run_scenario(scenario, duration_s=duration_s, seed=seed,
                              **kwargs)
        telemetry = obs.snapshot()
    return index, result, telemetry


def run_scenarios(
    scenarios: Sequence[Scenario],
    duration_s: float = 25.0,
    seeds: Optional[Sequence[Optional[int]]] = None,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    **run_kwargs: Any,
) -> List[SimulationResult]:
    """Run every scenario as an independent seeded trial, possibly in parallel.

    Args:
        scenarios: the trials to run.
        duration_s: trial length shared by all trials.
        seeds: per-trial seeds; defaults to ``base_seed + index``.  Pass
            explicit seeds to reproduce a specific sweep slice.
        base_seed: origin of the default seed sequence.
        max_workers: process-pool size (default: executor's own default).
        parallel: ``False`` runs serially in this process — same results,
            useful under debuggers and in environments without working
            process spawning.
        **run_kwargs: forwarded to :func:`~repro.sim.engine.run_scenario`
            (``reader_config``, ``gen2``, ...).  Everything forwarded must
            be picklable when running in parallel.

    Returns:
        One :class:`SimulationResult` per scenario, in input order.

    Raises:
        ScenarioError: when ``seeds`` is present but its length does not
            match ``scenarios``.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    if seeds is None:
        seeds = [base_seed + i for i in range(len(scenarios))]
    else:
        seeds = list(seeds)
        if len(seeds) != len(scenarios):
            raise ScenarioError(
                f"{len(seeds)} seeds for {len(scenarios)} scenarios"
            )
    tracer = obs.get_tracer()
    obs_settings = {"enabled": tracer.enabled, "detail": tracer.detail,
                    "wall_clock": tracer.wall_clock}
    jobs: List[_Job] = [
        (i, scenario, duration_s, seeds[i], dict(run_kwargs), obs_settings)
        for i, scenario in enumerate(scenarios)
    ]

    with obs.span("sweep.run_scenarios", trials=len(jobs)):
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        telemetries: List[Optional[dict]] = [None] * len(jobs)
        use_pool = parallel and len(jobs) > 1 and max_workers != 1
        if use_pool:
            try:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = [pool.submit(_run_one, job) for job in jobs]
                    for future in as_completed(futures):
                        index, result, telemetry = future.result()
                        results[index] = result
                        telemetries[index] = telemetry
            except (OSError, PermissionError) as exc:
                # Sandboxes without working process spawning fall back to
                # the serial path — identical results by construction.
                warnings.warn(
                    f"process pool unavailable ({exc}); running sweep serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                use_pool = False
        if not use_pool:
            for job in jobs:
                index, result, telemetry = _run_one(job)
                results[index] = result
                telemetries[index] = telemetry
        # Fold worker telemetry back in *input order*: metric merges are
        # commutative-enough (counters/histograms add), but event absorb
        # assigns fresh span IDs, so a fixed order keeps the parent's
        # stream deterministic however the pool scheduled the trials.
        registry = obs.get_registry()
        for i, telemetry in enumerate(telemetries):
            if telemetry is None:
                continue
            registry.merge(telemetry["metrics"])
            if telemetry["events"]:
                tracer.absorb(telemetry["events"], trial=i)
        obs.counter("repro_events_total", name="sweep.trials").inc(len(jobs))
    return results  # type: ignore[return-value]

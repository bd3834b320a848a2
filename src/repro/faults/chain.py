"""Seeded composition of fault injectors into one batch transform.

A :class:`FaultChain` is the unit a robustness campaign configures: an
ordered list of :class:`~repro.faults.injectors.FaultInjector` stages plus
one master seed.  Applying the chain derives an independent child
generator per stage from the master seed (via
:class:`numpy.random.SeedSequence` spawning), so

* the same chain applied to the same capture always yields the same
  faulted capture (reproducibility), and
* editing one stage's parameters never perturbs the random draws of the
  stages after it, keeping A/B fault sweeps aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import FaultInjectionError
from ..reader.batch import ReportBatch
from .injectors import FaultInjector


@dataclass(frozen=True)
class InjectionStats:
    """Bookkeeping of one chain stage's last application.

    Attributes:
        name: the injector's machine name.
        severity: the configured severity.
        reports_in: rows entering the stage.
        reports_out: rows leaving the stage.
    """

    name: str
    severity: float
    reports_in: int
    reports_out: int

    @property
    def dropped(self) -> int:
        """Net reports removed by the stage (negative = added, e.g. dups)."""
        return self.reports_in - self.reports_out


class FaultChain:
    """An ordered, seeded pipeline of fault injectors.

    Args:
        injectors: stages applied in order (may be empty = no-op chain).
        seed: master seed; identical (seed, input) pairs give identical
            faulted captures.

    Raises:
        FaultInjectionError: when a stage is not a :class:`FaultInjector`.
    """

    def __init__(self, injectors: Sequence[FaultInjector] = (),
                 seed: int = 0) -> None:
        stages = tuple(injectors)
        for stage in stages:
            if not isinstance(stage, FaultInjector):
                raise FaultInjectionError(
                    f"chain stages must be FaultInjector instances, got {stage!r}"
                )
        self._stages = stages
        self._seed = int(seed)
        self._last_stats: Tuple[InjectionStats, ...] = ()

    @property
    def stages(self) -> Tuple[FaultInjector, ...]:
        """The configured injector stages, in application order."""
        return self._stages

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    @property
    def last_stats(self) -> Tuple[InjectionStats, ...]:
        """Per-stage row accounting of the most recent :meth:`apply`."""
        return self._last_stats

    def __len__(self) -> int:
        return len(self._stages)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{s.name}@{s.severity:g}" for s in self._stages) or "no-op"
        return f"FaultChain([{inner}], seed={self._seed})"

    def apply(self, batch: ReportBatch) -> ReportBatch:
        """Run the capture through every stage and return the faulted batch.

        Re-applying to the same input reproduces the same output; stats of
        the run are kept in :attr:`last_stats`.  A chain of severity-0
        stages returns ``batch`` itself.
        """
        children = np.random.SeedSequence(self._seed).spawn(max(1, len(self._stages)))
        out = batch
        stats: List[InjectionStats] = []
        for stage, child in zip(self._stages, children):
            n_in = len(out)
            out = stage.apply(out, np.random.default_rng(child))
            stats.append(InjectionStats(
                name=stage.name,
                severity=stage.severity,
                reports_in=n_in,
                reports_out=len(out),
            ))
        self._last_stats = tuple(stats)
        return out

    def describe(self) -> str:
        """One line per stage: name, severity, and last-run accounting."""
        if not self._stages:
            return "no-op chain"
        lines = []
        stats = {id(s): st for s, st in zip(self._stages, self._last_stats)}
        for stage in self._stages:
            st = stats.get(id(stage))
            tail = (f"  {st.reports_in} -> {st.reports_out} reports"
                    if st is not None else "")
            lines.append(f"{stage.name:<20} severity={stage.severity:g}{tail}")
        return "\n".join(lines)

"""An in-process facade mimicking the LLRP Toolkit (LTK) surface.

The paper's prototype "implement[s] TagBreathe based on the LLRP Toolkit
(LTK) to config the commodity reader and read the low level data"
(Section V).  We cannot speak the wire protocol to hardware we don't have,
so this module reproduces the *programming model*: configure an ROSpec,
subscribe a tag-report callback, start the reader, receive a stream of
:class:`~repro.reader.tagreport.TagReport` records.

Examples and the streaming pipeline consume the reader through this facade
so swapping in real LTK bindings would touch nothing downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import ReaderError
from .batch import ReportBatch
from .reader import Reader, TagEnvironment
from .tagreport import TagReport

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from ..faults import FaultChain

#: A subscriber receiving each tag report as it is "delivered".
ReportCallback = Callable[[TagReport], None]


@dataclass(frozen=True)
class ROSpec:
    """A minimal Reader Operation spec, LLRP style.

    Attributes:
        duration_s: how long the inventory operation runs.
        start_time_s: absolute start time of the operation.
        report_every_n: deliver reports in batches of N (LLRP readers batch
            tag reports into RO_ACCESS_REPORT messages); 1 = immediate.
    """

    duration_s: float
    start_time_s: float = 0.0
    report_every_n: int = 1

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ReaderError("ROSpec duration must be > 0")
        if self.report_every_n < 1:
            raise ReaderError("report_every_n must be >= 1")


class LLRPClient:
    """LTK-style client: connect, add an ROSpec, subscribe, start.

    Args:
        reader: the reader model to drive.
        environment: the tag environment the reader inventories.
        faults: optional :class:`~repro.faults.FaultChain` applied to the
            capture before batching/dispatch, so subscribers see the same
            degraded stream a flaky deployment would deliver.
    """

    def __init__(
        self,
        reader: Reader,
        environment: TagEnvironment,
        faults: Optional["FaultChain"] = None,
    ) -> None:
        self._reader = reader
        self._env = environment
        self._rospec: Optional[ROSpec] = None
        self._subscribers: List[ReportCallback] = []
        self._connected = False
        self._faults = faults

    def set_fault_chain(self, faults: Optional["FaultChain"]) -> None:
        """Install (or clear, with None) the fault chain used by :meth:`start`."""
        self._faults = faults

    # ------------------------------------------------------------------
    # LTK-flavoured lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open the (simulated) reader connection."""
        self._connected = True

    def disconnect(self) -> None:
        """Close the connection and drop the configured ROSpec."""
        self._connected = False
        self._rospec = None

    def add_rospec(self, rospec: ROSpec) -> None:
        """Configure the reader operation to run on :meth:`start`.

        Raises:
            ReaderError: if not connected.
        """
        self._require_connected()
        self._rospec = rospec

    def subscribe(self, callback: ReportCallback) -> None:
        """Register a tag-report subscriber (may be called repeatedly)."""
        self._subscribers.append(callback)

    def start(self) -> ReportBatch:
        """Run the configured ROSpec, dispatching reports to subscribers.

        Returns:
            Every report delivered (the capture file, as one
            :class:`~repro.reader.batch.ReportBatch`) — in timestamp order
            unless an installed fault chain reorders or drops reads.

        Raises:
            ReaderError: if not connected or no ROSpec was added.
        """
        self._require_connected()
        if self._rospec is None:
            raise ReaderError("no ROSpec configured; call add_rospec first")
        reports = self._reader.run(
            self._env, self._rospec.duration_s, t_start=self._rospec.start_time_s
        )
        if self._faults is not None:
            reports = self._faults.apply(reports)
        batch: List[TagReport] = []
        for report in reports:
            batch.append(report)
            if len(batch) >= self._rospec.report_every_n:
                self._dispatch(batch)
                batch = []
        if batch:
            self._dispatch(batch)
        return reports

    # ------------------------------------------------------------------
    def _dispatch(self, batch: List[TagReport]) -> None:
        for report in batch:
            for callback in self._subscribers:
                callback(report)

    def _require_connected(self) -> None:
        if not self._connected:
            raise ReaderError("not connected; call connect() first")

"""The low-level data record a commodity reader reports per tag read.

    "The low level data reports the received signal strength, raw phase
    value, raw Doppler shift, time stamp, and the tag ID."  (Section IV-A)

Plus the channel index (Fig. 5) and antenna port (Section IV-D-3), which
the Impinj R420 also reports and TagBreathe uses for preprocessing and
antenna selection respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..epc.codec import EPC96
from ..errors import ReaderError
from ..units import TWO_PI


@dataclass(frozen=True)
class TagReport:
    """One successful tag read, as delivered over LLRP.

    Attributes:
        epc: the tag's 96-bit EPC (user ID + tag ID when overwritten).
        timestamp_s: read completion time.
        phase_rad: raw backscatter phase in [0, 2*pi).
        rssi_dbm: received signal strength (0.5 dB quantised).
        doppler_hz: raw Doppler-shift estimate (noisy; Eq. 2).
        channel_index: frequency channel the read happened on.
        antenna_port: antenna port (1-based, as LLRP numbers them).
    """

    epc: EPC96
    timestamp_s: float
    phase_rad: float
    rssi_dbm: float
    doppler_hz: float
    channel_index: int
    antenna_port: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp_s):
            raise ReaderError(
                f"timestamp must be finite, got {self.timestamp_s}")
        if not 0.0 <= self.phase_rad < TWO_PI + 1e-12:
            raise ReaderError(f"phase must be in [0, 2*pi), got {self.phase_rad}")
        if self.channel_index < 0:
            raise ReaderError("channel_index must be >= 0")
        if self.antenna_port < 1:
            raise ReaderError("antenna_port is 1-based")

    @property
    def user_id(self) -> int:
        """User ID from the high 64 EPC bits (Fig. 9)."""
        return self.epc.user_id

    @property
    def tag_id(self) -> int:
        """Short tag ID from the low 32 EPC bits (Fig. 9)."""
        return self.epc.tag_id

    @property
    def stream_key(self) -> Tuple[int, int]:
        """The (user_id, tag_id) pair that names this tag's data stream."""
        return self.epc.split()

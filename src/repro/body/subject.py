"""The instrumented human subject: geometry, posture, orientation, tags.

A :class:`Subject` places 1–3 tags on a torso (Section IV-D-1), drives
their positions with a breathing waveform plus postural sway, and exposes
the situational RF loss (orientation / LOS blockage) for each tag relative
to any antenna.  The :class:`repro.sim.scenario.Scenario` aggregates
subjects into the :class:`~repro.reader.reader.TagEnvironment` the reader
inventories.

Geometry convention: the reader antenna sits near the origin facing +x
(the paper mounts it 1 m above the ground); a subject at distance ``d``
stands/sits at ``(d, lateral_offset, torso height)``.  Orientation 0 means
facing the antenna (the paper's 0 deg = "front"), growing counter-clockwise
to 180 deg = facing away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..epc.codec import EPC96
from ..errors import BodyModelError
from ..reader.antenna import Antenna
from .blockage import orientation_loss_db
from .motion import BodySway
from .placement import BreathingStyle, TagPlacement, standard_placements
from .waveforms import BreathingWaveform, MetronomeBreathing

#: Torso reference height above ground per posture [m].
_TORSO_HEIGHT_M: Dict[str, float] = {"sitting": 1.0, "standing": 1.3, "lying": 0.5}

#: Share of breathing motion appearing along the lateral (rib-expansion)
#: axis relative to the frontal axis.  This is why accuracy degrades
#: gracefully rather than vanishing as the user rotates toward 90 deg
#: (Fig. 16: 90 % -> 85 %).
LATERAL_MOTION_SHARE = 0.45

#: For a lying subject the chest rises mostly vertically with a small
#: residual horizontal component.
_LYING_VERTICAL_SHARE = 0.94
_LYING_FRONTAL_SHARE = 0.35


@dataclass(frozen=True)
class BodyTag:
    """One tag worn by a subject.

    Attributes:
        user_id: the wearer's 64-bit user ID.
        tag_id: the 32-bit short tag ID (unique within the user).
        epc: the overwritten EPC (Fig. 9 layout).
        placement: where on the torso the tag sits.
    """

    user_id: int
    tag_id: int
    epc: EPC96
    placement: TagPlacement

    @property
    def key(self) -> tuple:
        """Hashable identity used as the environment tag key."""
        return (self.user_id, self.tag_id)


class Subject:
    """A breathing human wearing an array of RFID tags.

    Args:
        user_id: 64-bit user identity written into the tags' EPCs.
        distance_m: antenna-to-torso distance along +x (Table I: 1–6 m).
        orientation_deg: facing angle, 0 = toward the antenna (Table I).
        posture: "sitting", "standing", or "lying" (Table I).
        breathing: waveform; defaults to metronome-paced 10 bpm (the
            Table I default rate).
        style: chest vs abdominal breathing (Section IV-D-1).
        num_tags: tags worn, 1–3 (Table I).
        lateral_offset_m: sideways offset, used to seat multiple users
            "side by side" (Fig. 13's setup).
        sway: postural sway process; a small default sway is used when
            omitted, pass an explicit zero-amplitude BodySway to disable.
        sway_seed: seed for the default sway process.

    Raises:
        BodyModelError: on invalid posture or geometry.
    """

    def __init__(
        self,
        user_id: int,
        distance_m: float,
        orientation_deg: float = 0.0,
        posture: str = "sitting",
        breathing: Optional[BreathingWaveform] = None,
        style: BreathingStyle = BreathingStyle.MIXED,
        num_tags: int = 3,
        lateral_offset_m: float = 0.0,
        sway: Optional[BodySway] = None,
        sway_seed: Optional[int] = None,
    ) -> None:
        if distance_m <= 0:
            raise BodyModelError(f"distance must be > 0, got {distance_m}")
        if posture not in _TORSO_HEIGHT_M:
            raise BodyModelError(
                f"posture must be one of {sorted(_TORSO_HEIGHT_M)}, got {posture!r}"
            )
        if not 0.0 <= orientation_deg <= 180.0:
            raise BodyModelError("orientation must be in [0, 180] degrees")
        self.user_id = int(user_id)
        self.distance_m = float(distance_m)
        self.orientation_deg = float(orientation_deg)
        self.posture = posture
        self.breathing = breathing if breathing is not None else MetronomeBreathing(10.0)
        self.style = style
        self.lateral_offset_m = float(lateral_offset_m)
        self._sway = sway if sway is not None else BodySway(seed=sway_seed)
        placements = standard_placements(num_tags, style)
        self.tags: List[BodyTag] = [
            BodyTag(
                user_id=self.user_id,
                tag_id=i + 1,
                epc=EPC96.from_user_tag(self.user_id, i + 1),
                placement=p,
            )
            for i, p in enumerate(placements)
        ]
        self._tags_by_id = {t.tag_id: t for t in self.tags}

        psi = math.radians(self.orientation_deg)
        #: Horizontal facing unit vector (0 deg faces the antenna at -x).
        self._facing = np.array([-math.cos(psi), math.sin(psi), 0.0])
        #: Horizontal lateral unit vector (rib-expansion axis).
        self._lateral = np.array([-math.sin(psi), -math.cos(psi), 0.0])
        if posture == "lying":
            vertical = np.array([0.0, 0.0, 1.0])
            axis = _LYING_FRONTAL_SHARE * self._facing + _LYING_VERTICAL_SHARE * vertical
            self._breath_axis = axis / np.linalg.norm(axis)
            self._breath_lateral = self._lateral
        else:
            self._breath_axis = self._facing
            self._breath_lateral = self._lateral
        # Precomputed per-call invariants of tag_position_m: the combined
        # breathing direction and each tag's static mounting point.  The
        # arithmetic matches the per-call expressions exactly, so cached
        # and uncached evaluation give bit-identical positions.
        self._motion_axis = self._breath_axis + LATERAL_MOTION_SHARE * self._breath_lateral
        self._base_by_tag: Dict[int, np.ndarray] = {
            tag.tag_id: self.torso_reference_m()
            + np.array([0.0, 0.0, tag.placement.height_offset_m])
            for tag in self.tags
        }

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def torso_height_m(self) -> float:
        """Torso reference height for the current posture."""
        return _TORSO_HEIGHT_M[self.posture]

    def torso_reference_m(self) -> np.ndarray:
        """Static torso reference point (no breathing/sway applied)."""
        return np.array([self.distance_m, self.lateral_offset_m, self.torso_height_m])

    def tag_by_id(self, tag_id: int) -> BodyTag:
        """Look up a worn tag.

        Raises:
            BodyModelError: if this subject does not wear ``tag_id``.
        """
        tag = self._tags_by_id.get(tag_id)
        if tag is None:
            raise BodyModelError(f"user {self.user_id} wears no tag {tag_id}")
        return tag

    def tag_position_m(self, tag_id: int, t: float) -> np.ndarray:
        """Instantaneous 3-D position of a worn tag.

        Combines the static mounting point, the breathing displacement
        (scaled by the placement's motion share and directed along the
        posture-dependent chest axis plus a lateral component), and the
        shared postural sway.
        """
        tag = self.tag_by_id(tag_id)
        base = self._base_by_tag[tag_id]
        breath = self.breathing.displacement(t) * tag.placement.motion_share
        sway = self._sway.displacement(t)
        motion = breath * self._motion_axis
        return base + motion + sway * self._facing

    def tag_position_m_array(self, tag_id: int, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`tag_position_m`: ``(len(times), 3)`` positions.

        One waveform/sway evaluation over the whole time vector instead of
        a Python call per instant — the trajectory fast path the batched
        reader synthesis rides on.
        """
        tag = self.tag_by_id(tag_id)
        times = np.asarray(times, dtype=float)
        base = self._base_by_tag[tag_id]
        breath = self.breathing.displacement_array(times) * tag.placement.motion_share
        sway = self._sway.displacement_array(times)
        return (base
                + np.outer(breath, self._motion_axis)
                + np.outer(sway, self._facing))

    def tag_position_envelope_m(self, tag_id: int
                                ) -> Optional[Tuple[np.ndarray, float]]:
        """``(centre, radius)`` of a ball the worn tag never leaves.

        The centre is the tag's static mounting point.  Breathing moves
        the tag along the motion axis by at most the waveform's peak
        displacement times the placement's motion share, and sway moves
        it along the facing (unit) vector by at most the sway's peak, so
        the radius is their sum.  ``None`` when the waveform declares no
        bound.
        """
        tag = self.tag_by_id(tag_id)
        breath_peak = self.breathing.peak_displacement_m()
        if breath_peak is None:
            return None
        radius = (breath_peak * tag.placement.motion_share
                  * float(np.linalg.norm(self._motion_axis))
                  + self._sway.peak_displacement_m())
        return self._base_by_tag[tag_id].copy(), radius

    # ------------------------------------------------------------------
    # Situational RF loss
    # ------------------------------------------------------------------
    def effective_orientation_deg(self, antenna: Antenna) -> float:
        """The orientation angle *relative to a particular antenna*.

        Fig. 15 rotates the user against a single antenna; with multiple
        antennas placed around the room each one sees its own effective
        orientation, which is what makes per-user antenna selection
        (Section IV-D-3) worthwhile.
        """
        to_antenna = np.asarray(antenna.position_m, dtype=float) - self.torso_reference_m()
        horizontal = to_antenna.copy()
        horizontal[2] = 0.0
        norm = float(np.linalg.norm(horizontal))
        if norm == 0.0:
            return 0.0
        cos_angle = float(self._facing @ horizontal) / norm
        cos_angle = min(1.0, max(-1.0, cos_angle))
        return math.degrees(math.acos(cos_angle))

    def extra_loss_db(self, tag_id: int, t: float, antenna: Antenna) -> float:
        """Situational one-way loss for a worn tag toward ``antenna``.

        ``math.inf`` when the torso fully blocks the LOS path.
        """
        self.tag_by_id(tag_id)  # validates ownership
        return orientation_loss_db(self.effective_orientation_deg(antenna))

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def true_rate_bpm(self, t_start: float, t_end: float) -> float:
        """Ground-truth breathing rate over a window (the metronome value)."""
        return self.breathing.true_rate_bpm(t_start, t_end)

    def __repr__(self) -> str:
        return (
            f"Subject(user={self.user_id}, d={self.distance_m}m, "
            f"orient={self.orientation_deg}deg, {self.posture}, "
            f"{len(self.tags)} tags)"
        )

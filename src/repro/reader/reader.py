"""The reader: ties hopping, antennas, the Gen2 MAC, and RF physics into
the low-level report stream the TagBreathe pipeline consumes.

This is the stand-in for the paper's Impinj Speedway R420 (Section V).
Given a :class:`TagEnvironment` — anything that can say where each tag is
at time ``t`` and how much extra loss its situation imposes — the reader
produces :class:`~repro.reader.tagreport.TagReport` records (as one
column-oriented :class:`~repro.reader.batch.ReportBatch`) with all the
artefacts the paper characterises in Section IV-A:

* phase values that jump at every frequency hop (per-channel offset),
* RSSI quantised to 0.5 dBm,
* noisy raw Doppler,
* irregular read timing from slotted-ALOHA arbitration,
* read rates that collapse with distance, contention, and blockage.
"""

from __future__ import annotations

import math
from typing import (Dict, Hashable, List, Mapping, Optional, Protocol,
                    Sequence, Tuple)

import numpy as np

from .. import obs
from ..config import ReaderConfig
from ..epc.codec import EPC96
from ..epc.gen2 import Gen2Config, Gen2Inventory
from ..epc.select import SelectCommand
from ..errors import ReaderError
from ..rf.channel import ChannelPlan
from ..rf.doppler import doppler_report
from ..rf.noise import DynamicMultipath, PhaseNoiseModel, quantize_rssi
from ..rf.phase import PhaseModel, backscatter_phase
from ..rf.propagation import LinkBudget
from ..units import wrap_phase
from .antenna import Antenna, RoundRobinScheduler
from .batch import ReportBatch
from .hopping import HopSchedule


class TagEnvironment(Protocol):
    """What the reader needs to know about the world.

    Implemented by :class:`repro.sim.scenario.Scenario`; any object with
    these methods works (e.g. a replayer of recorded traces).

    Two optional methods let the reader table a run's link terms; an
    environment without them is probed exactly per slot:

    * ``situational_loss_db_static(key, antenna) -> Optional[float]`` —
      the :meth:`extra_loss_db` of a link whose loss never changes, or
      ``None`` when it varies with time;
    * ``position_envelope_m(key) -> Optional[Tuple[np.ndarray, float]]``
      — a ``(centre, radius)`` ball that :meth:`position_m` never leaves
      during the run (radius 0 for a tag that never moves), or ``None``.
      On a static-loss link the reader bounds the budget over the ball
      and evaluates the trajectory only for a fading draw the bounds
      cannot decide (DESIGN.md §9).
    """

    def tag_keys(self) -> Sequence[Hashable]:
        """Identities of every tag in the field (monitoring + contending)."""
        ...

    def epc(self, key: Hashable) -> EPC96:
        """The 96-bit EPC the tag backscatters."""
        ...

    def position_m(self, key: Hashable, t: float) -> np.ndarray:
        """Tag position (3-vector, metres) at time ``t`` — includes the
        breathing displacement, which is the signal of interest."""
        ...

    def extra_loss_db(self, key: Hashable, t: float, antenna: Antenna) -> float:
        """Situational one-way loss [dB] beyond geometry: orientation gain
        reduction and body blockage.  ``math.inf`` means the LOS path is
        fully blocked and the tag cannot be energised at all (Fig. 15,
        orientation > 90 degrees)."""
        ...


def record_read_metrics(registry: obs.MetricsRegistry,
                        reads_by_tag: Mapping[Hashable, int],
                        ports: np.ndarray, snr: np.ndarray) -> None:
    """Record per-tag read counters and per-antenna mean SNR gauges.

    The reader's traced-only metrics, one call per capture.
    ``reads_by_tag`` counts each tag's successful reads; ``ports`` and
    ``snr`` hold one entry per read.
    """
    # Stringify once per unique tag — a str() per read is measurable at
    # paper scale.
    for label, n in sorted((str(k), n) for k, n in reads_by_tag.items()):
        registry.counter("repro_reader_tag_reads_total", tag=label).inc(n)
    if snr.size:
        for port in np.unique(ports):
            mean = float(snr[ports == port].mean())
            registry.gauge("repro_reader_snr_db_mean",
                           antenna=str(int(port))).set(mean)


class Reader:
    """An R420-class reader over a simulated (or replayed) environment.

    Args:
        config: reader parameters (power, channels, dwell, antennas).
        antennas: connected antennas; defaults to one panel at (0, 0, 1) m
            facing +x, matching the paper's setup ("the location of the
            antenna 1 m above the ground").
        channel_plan: hop channels; defaults to the 10-channel plan.
        link_budget: RF link model; ``tx_power_dbm``/``reader_gain_dbi``
            are overridden from ``config``/antenna if not given.
        phase_noise: phase-noise-vs-SNR model.
        gen2: MAC timing parameters.
        rng: random source; pass a seeded generator for reproducible runs.

    Raises:
        ReaderError: if the antenna count disagrees with ``config``.
    """

    def __init__(
        self,
        config: Optional[ReaderConfig] = None,
        antennas: Optional[Sequence[Antenna]] = None,
        channel_plan: Optional[ChannelPlan] = None,
        link_budget: Optional[LinkBudget] = None,
        phase_noise: Optional[PhaseNoiseModel] = None,
        multipath: Optional[DynamicMultipath] = None,
        gen2: Optional[Gen2Config] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._config = config if config is not None else ReaderConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        if antennas is None:
            antennas = [
                Antenna(port=i + 1, position_m=(0.0, 0.0, 1.0), boresight=(1.0, 0.0, 0.0),
                        peak_gain_dbi=self._config.antenna_gain_dbic)
                for i in range(self._config.num_antennas)
            ]
        if len(antennas) != self._config.num_antennas:
            raise ReaderError(
                f"config says {self._config.num_antennas} antennas, got {len(antennas)}"
            )
        self._scheduler = RoundRobinScheduler(
            antennas, switch_period_s=self._config.channel_dwell_s
        )
        plan = channel_plan if channel_plan is not None else ChannelPlan.default(
            self._config.num_channels, rng=self._rng
        )
        self._hops = HopSchedule(plan, dwell_s=self._config.channel_dwell_s, rng=self._rng)
        if link_budget is None:
            link_budget = LinkBudget(
                tx_power_dbm=self._config.tx_power_dbm,
                reader_gain_dbi=self._config.antenna_gain_dbic,
            )
        self._budget = link_budget
        self._phase_noise = phase_noise if phase_noise is not None else PhaseNoiseModel()
        self._multipath = (multipath if multipath is not None
                           else DynamicMultipath(rng=self._rng))
        self._gen2_config = gen2 if gen2 is not None else Gen2Config()
        # Fixed per-link circuit phase offsets: one per (tag, antenna port).
        self._phase_models: Dict[Tuple[Hashable, int], PhaseModel] = {}
        # Static per-(tag, antenna, channel) fading for *reported* RSSI:
        # with nothing moving, the standing-wave pattern is fixed, so real
        # readers report a stable per-link RSSI level rather than a fresh
        # fading draw per read.
        self._static_fades: Dict[Tuple[Hashable, int, int], float] = {}
        # Per-link phase of the standing-wave ripple that couples RSSI to
        # tag displacement — the mechanism behind the visible breathing
        # oscillation of the paper's Fig. 2.
        self._ripple_phases: Dict[Tuple[Hashable, int, int], float] = {}

    #: Peak-to-mid amplitude [dB] of the standing-wave RSSI ripple.  A
    #: breathing displacement of ~1 cm sweeps ~0.4 rad of round-trip phase,
    #: so a 1.5 dB ripple produces the ~0.5-1 dB oscillation Fig. 2 shows.
    RSSI_RIPPLE_DB = 1.5

    #: Per-read RSSI jitter sigma [dB] before 0.5 dB quantisation.
    RSSI_JITTER_DB = 0.15

    #: Sigma [dB] of the static per-(tag, antenna, channel) fading level in
    #: *reported* RSSI.  Zero disables the draw entirely, which keeps
    #: RNG-free configurations RNG-free.
    RSSI_FADE_SIGMA_DB = 2.0

    #: Half-width [s] of the central difference behind Doppler velocity.
    VELOCITY_EPS_S = 0.01

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> ReaderConfig:
        """The reader configuration."""
        return self._config

    @property
    def hop_schedule(self) -> HopSchedule:
        """The frequency-hop schedule in force."""
        return self._hops

    @property
    def antenna_scheduler(self) -> RoundRobinScheduler:
        """The round-robin antenna scheduler."""
        return self._scheduler

    @property
    def link_budget(self) -> LinkBudget:
        """The RF link budget used for read-success and RSSI."""
        return self._budget

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def run(self, env: TagEnvironment, duration_s: float,
            t_start: float = 0.0,
            select: Optional[SelectCommand] = None) -> ReportBatch:
        """Continuously inventory ``env`` for ``duration_s`` seconds.

        Args:
            env: the tag environment.
            duration_s: inventory length.
            t_start: absolute start time.
            select: optional Gen2 Select; only tags whose EPC matches
                participate in the inventory at all (the MAC-level filter
                of :mod:`repro.epc.select`).  None inventories everything.

        Returns:
            All successful tag reads as one batch (a read-only sequence
            of :class:`~repro.reader.tagreport.TagReport`), in timestamp
            order, with full low-level data — the equivalent of an LLRP
            capture file.
            Empty when the Select matches no tag.

        Raises:
            ReaderError: unless ``duration_s`` is positive and finite and
                ``t_start`` is finite and non-negative; on an empty
                environment.
        """
        if not 0.0 < duration_s < math.inf:
            raise ReaderError(f"duration_s must be positive and finite, got {duration_s}")
        if not 0.0 <= t_start < math.inf:
            raise ReaderError(f"t_start must be finite and >= 0, got {t_start}")
        keys = list(env.tag_keys())
        if not keys:
            raise ReaderError("environment contains no tags")
        if select is not None:
            keys = [k for k in keys if select.matches(env.epc(k))]
            if not keys:
                return ReportBatch.from_reports([])
        with obs.span("reader.run", tags=len(keys),
                      duration_s=duration_s) as span:
            # The MAC probes read per-run link tables; report synthesis
            # then runs in whole-run passes.  See DESIGN.md, "Performance
            # architecture", for the determinism contract.
            links = _LinkTable(env, keys, self._scheduler, self._hops,
                               self._budget, self._rng)
            inventory = Gen2Inventory(
                keys, config=self._gen2_config, rng=self._rng,
                link_ok=links.link_ok, population=links.population,
            )
            with obs.span("reader.mac"):
                events = inventory.run_for(duration_s, t_start=t_start)
            with obs.span("reader.synthesize"):
                reports = self._build_reports_batched(env, events)
            obs.counter("repro_events_total",
                        name="reader.reads_synthesized").inc(len(reports))
            span.set(reports=len(reports))
        return reports

    # ------------------------------------------------------------------
    # Report construction
    # ------------------------------------------------------------------
    def _phase_model_for(self, key: Hashable, port: int) -> PhaseModel:
        link = (key, port)
        model = self._phase_models.get(link)
        if model is None:
            model = PhaseModel(rng=self._rng)
            self._phase_models[link] = model
        return model

    def _rssi_link_state(self, key: Hashable, port: int,
                         channel_index: int) -> Tuple[float, float]:
        """The (fade, ripple phase) pair for one RSSI link, drawn lazily.

        Zero-amplitude fades/ripples short-circuit without consuming
        randomness, so RNG-free configurations stay RNG-free — the
        precondition for exact equivalence with the per-read reference
        reader the tests keep.
        """
        link = (key, port, channel_index)
        fade = self._static_fades.get(link)
        if fade is None:
            if self.RSSI_FADE_SIGMA_DB == 0.0:
                fade = 0.0
            else:
                fade = float(self._rng.normal(0.0, self.RSSI_FADE_SIGMA_DB))
            self._static_fades[link] = fade
        ripple_phase = self._ripple_phases.get(link)
        if ripple_phase is None:
            if self.RSSI_RIPPLE_DB == 0.0:
                ripple_phase = 0.0
            else:
                ripple_phase = float(self._rng.uniform(0.0, 2.0 * math.pi))
            self._ripple_phases[link] = ripple_phase
        return fade, ripple_phase

    def _build_reports_batched(self, env: TagEnvironment,
                               events: Sequence[Tuple[float, Hashable]]
                               ) -> ReportBatch:
        """Synthesize a run's reads as one time-ordered batch.

        Determinism contract (see DESIGN.md, "Performance architecture"):

        * Lazy per-link state — hop-sequence extension, multipath tone
          sets, circuit phase offsets, static fades, ripple phases — is
          drawn through the calls a per-read synthesis would make, in
          event order, at each (tag, channel, antenna) link's first touch
          and at every read whose hop lies past the materialised
          sequence.  Every other read would draw nothing, so the draws
          land at the same stream positions as a per-read pass.  With
          per-read noise disabled this makes the batched and per-read
          forms consume identical RNG streams and emit identical reports.
        * Per-read noise (phase noise, Doppler noise, RSSI jitter) is then
          drawn in whole-run batches, in event order — deterministic for a
          given seed, though interleaved differently than a per-read
          pass.
        """
        if not events:
            return ReportBatch.from_reports([])
        n = len(events)
        ts = np.array([t for t, _ in events], dtype=float)
        key_index: Dict[Hashable, int] = {}
        key_idx = np.fromiter(
            (key_index.setdefault(key, len(key_index)) for _, key in events),
            dtype=np.intp, count=n)
        keys = list(key_index)

        antennas = self._scheduler.antennas
        n_ant = len(antennas)
        ant_idx = (ts / self._scheduler.switch_period_s).astype(int) % n_ant
        port_of = [a.port for a in antennas]
        ports = np.array(port_of, dtype=int)[ant_idx]
        plan = self._hops.plan
        channels = [plan[i] for i in range(len(plan))]
        n_ch = len(channels)

        # --- Lazy per-link state: first touches and hop-tail reads ------
        tag_antenna = key_idx * n_ant + ant_idx
        known = self._hops.known_channel_indices_at(ts)
        tail = known < 0
        known_rows = np.flatnonzero(~tail)
        _, first = np.unique((tag_antenna * n_ch + known)[known_rows],
                             return_index=True)
        for i in np.union1d(known_rows[first], np.flatnonzero(tail)).tolist():
            t, key = events[i]
            port = port_of[ant_idx[i]]
            ci = self._hops.channel_index_at(t)  # may extend the hop sequence
            self._multipath.ensure_link((key, ci, port))
            self._phase_model_for(key, port)
            self._rssi_link_state(key, port, ci)
        chan_idx = self._hops.channel_indices_at(ts)  # all materialised now

        # One row per (tag, antenna, channel) link the run touched.
        link_codes, link_of = np.unique(tag_antenna * n_ch + chan_idx,
                                        return_inverse=True)
        links = [(keys[code // (n_ant * n_ch)], port_of[code // n_ch % n_ant],
                  code % n_ch) for code in link_codes.tolist()]
        fades = np.array([self._static_fades[link] for link in links])[link_of]
        ripple_phases = np.array(
            [self._ripple_phases[link] for link in links])[link_of]
        circuit = np.array([self._phase_models[(key, port)].link_offset_rad
                            for key, port, _ in links])[link_of]
        freqs = np.array([c.frequency_hz for c in channels])[chan_idx]
        lams = np.array([c.wavelength_m for c in channels])[chan_idx]
        offsets = (np.array([c.phase_offset_rad for c in channels])[chan_idx]
                   + circuit)

        # --- Geometry: one trajectory evaluation per tag ----------------
        by_key = np.argsort(key_idx, kind="stable")
        key_bounds = np.searchsorted(key_idx[by_key],
                                     np.arange(len(keys) + 1)).tolist()
        position_array = getattr(env, "position_m_array", None)
        loss_array = getattr(env, "extra_loss_db_array", None)
        eps = self.VELOCITY_EPS_S
        dist = np.empty(n, dtype=float)
        d_lo = np.empty(n, dtype=float)
        d_hi = np.empty(n, dtype=float)
        situational = np.empty(n, dtype=float)
        for k, key in enumerate(keys):
            idx = by_key[key_bounds[k]:key_bounds[k + 1]]
            t_read = ts[idx]
            t_lo = np.maximum(0.0, t_read - eps)
            t_hi = t_lo + 2.0 * eps
            times = np.concatenate([t_read, t_lo, t_hi])
            if position_array is not None:
                pos = position_array(key, times)
            else:
                pos = np.array([env.position_m(key, float(t)) for t in times])
            m = idx.size
            for ai in np.unique(ant_idx[idx]):
                antenna = antennas[int(ai)]
                sub = idx[ant_idx[idx] == ai]
                sel = np.flatnonzero(ant_idx[idx] == ai)
                dist[sub] = antenna.distances_to(pos[:m][sel])
                d_lo[sub] = antenna.distances_to(pos[m:2 * m][sel])
                d_hi[sub] = antenna.distances_to(pos[2 * m:][sel])
                if loss_array is not None:
                    situational[sub] = loss_array(key, ts[sub], antenna)
                else:
                    situational[sub] = [
                        env.extra_loss_db(key, float(t), antenna) for t in ts[sub]
                    ]
        velocity = (d_hi - d_lo) / (2.0 * eps)
        loss = np.where(np.isinf(situational), 0.0, situational)

        # --- Signal synthesis, one pass over all reads ------------------
        snr = self._budget.snr_db(dist, freqs, extra_loss_db=loss)
        noise = self._phase_noise.sample_array(snr, self._rng)
        clutter = self._multipath.phase_offsets(
            [(key, ci, port) for key, port, ci in links], link_of, ts, dist)
        # Noise and clutter are summed before they meet the clean phase,
        # the order PhaseModel.phase adds them in.
        phases = wrap_phase(backscatter_phase(dist, lams, offsets)
                            + (noise + clutter))

        doppler = doppler_report(
            velocity, lams, self._rng,
            phase_noise_rad=self._phase_noise.sigma(snr),
        )

        base = self._budget.rx_power_dbm(dist, freqs, extra_loss_db=loss)
        ripple = self.RSSI_RIPPLE_DB * np.sin(
            4.0 * np.pi * dist / lams + ripple_phases
        )
        if self.RSSI_JITTER_DB == 0.0:
            jitter = np.zeros(n)
        else:
            jitter = self._rng.normal(0.0, self.RSSI_JITTER_DB, size=n)
        rssi = quantize_rssi(
            base + fades + ripple + jitter, self._config.rssi_resolution_db
        )

        if obs.enabled():
            record_read_metrics(
                obs.get_registry(),
                dict(zip(keys, np.bincount(key_idx).tolist())), ports, snr)

        epcs = [env.epc(key) for key in keys]
        user_id = np.array([e.user_id for e in epcs], dtype=np.uint64)
        tag_id = np.array([e.tag_id for e in epcs], dtype=np.uint64)
        order = np.argsort(ts, kind="stable")
        return ReportBatch(ts[order], phases[order], rssi[order],
                           doppler[order], chan_idx[order], ports[order],
                           user_id[key_idx[order]], tag_id[key_idx[order]])


#: Widening [dB] of every tabled power bound.  The bounds are the real
#: extremes of the budget over a tag's envelope; the exact probe computes
#: the same budget in floats, whose rounding moves it by ~1e-13 dB at
#: most, so a fade that clears a bound by this margin decides the slot.
_BOUND_MARGIN_DB = 1e-9


class _LinkTable:
    """Per-run link terms behind the reader's MAC probes.

    Everything a probe needs that cannot change within a run is worked
    out once per run:

    * the situational loss of every (tag, antenna) link the environment
      declares static, and from it the per-antenna round population;
    * the free-space reference loss of every channel;
    * for a tag with a position envelope (``position_envelope_m``: a ball
      it never leaves) on a link with static loss, the bounds
      ``(tag_lo, tag_hi, rx_lo, rx_hi)`` of its budget over the whole
      ball, per (tag, antenna, channel), filled on first use.

    A probe looks up the hop and makes the one fading draw that
    :meth:`LinkBudget.sample_read` would make (from the reader's
    generator).  The slot reads when the faded lower bounds clear both
    sensitivities and fails when either faded upper bound misses; only a
    draw that lands between the bounds, or a link without them, evaluates
    the trajectory and the antenna pattern with ``sample_read``'s
    arithmetic, term for term, against the same draw
    (:attr:`exact_probes` counts these).  So the tables draw the MAC
    event stream a per-slot ``sample_read`` probe would.
    """

    def __init__(self, env: TagEnvironment, keys: List[Hashable],
                 scheduler: RoundRobinScheduler, hops: HopSchedule,
                 budget: LinkBudget, rng: np.random.Generator) -> None:
        self._env = env
        self._keys = keys
        self._antennas = scheduler.antennas
        self._n_ant = len(self._antennas)
        self._period = scheduler.switch_period_s
        self._hops = hops
        self._budget = budget
        self._rng = rng
        self._misses = budget.misses_sensitivity
        path_loss = budget.path_loss
        self._sample_fade = path_loss.sample_fading_db
        self._rolloff_db = path_loss.rolloff_db
        plan = self._hops.plan
        self._reference_loss_db = [
            path_loss.reference_loss_db(plan[ci].frequency_hz)
            for ci in range(len(plan))
        ]
        #: Probes decided by evaluating the trajectory rather than bounds.
        self.exact_probes = 0

        static_loss = getattr(env, "situational_loss_db_static", None)
        envelope_of = getattr(env, "position_envelope_m", None)
        self._situational: Dict[Tuple[Hashable, int], Optional[float]] = {}
        # Per bounded link, the envelope's (gain_lo, gain_hi, dist_lo,
        # dist_hi) toward the antenna, and its power bounds per channel.
        self._balls: Dict[Tuple[Hashable, int], Tuple[float, ...]] = {}
        self._bounds: Dict[Tuple[Hashable, int], List[Optional[tuple]]] = {}
        for key in keys:
            envelope = envelope_of(key) if envelope_of is not None else None
            for ai, antenna in enumerate(self._antennas):
                loss = (static_loss(key, antenna)
                        if static_loss is not None else None)
                self._situational[(key, ai)] = loss
                if envelope is None or loss is None or math.isinf(loss):
                    continue
                ball = antenna.gain_and_distance_bounds(*envelope)
                if ball is not None:
                    self._balls[(key, ai)] = ball
                    self._bounds[(key, ai)] = [None] * len(plan)

        # One energised-tag list per antenna when every link's loss is
        # static; otherwise each round filters the keys.
        self._by_antenna: Optional[List[List[Hashable]]] = None
        if all(loss is not None for loss in self._situational.values()):
            self._by_antenna = [
                [k for k in keys if not math.isinf(self._situational[(k, ai)])]
                for ai in range(self._n_ant)
            ]

    def population(self, t: float) -> List[Hashable]:
        """The tags that power up for the round starting at ``t``."""
        ai = int(t / self._period) % self._n_ant
        if self._by_antenna is not None:
            return self._by_antenna[ai]
        return [k for k in self._keys
                if not math.isinf(self._situational_at(k, ai, t))]

    def _situational_at(self, key: Hashable, ai: int, t: float) -> float:
        situational = self._situational[(key, ai)]
        if situational is None:
            situational = self._env.extra_loss_db(key, t, self._antennas[ai])
        return situational

    def link_ok(self, key: Hashable, t: float) -> bool:
        """Whether the singleton slot of ``key`` at MAC time ``t`` reads."""
        ai = int(t / self._period) % self._n_ant
        situational = self._situational_at(key, ai, t)
        if math.isinf(situational):
            return False
        ci = self._hops.channel_index_at(t)  # may extend the hop sequence
        fade = self._sample_fade(self._rng)
        table = self._bounds.get((key, ai))
        if table is not None:
            bounds = table[ci]
            if bounds is None:
                bounds = table[ci] = self._power_bounds(key, ai, ci, situational)
            tag_lo, tag_hi, rx_lo, rx_hi = bounds
            if not self._misses(tag_lo, rx_lo, fade):
                return True
            if self._misses(tag_hi, rx_hi, fade):
                return False
        self.exact_probes += 1
        tag_p, rx_p = self._link_powers(key, ai, ci, t, situational)
        return not self._misses(tag_p, rx_p, fade)

    def _power_bounds(self, key: Hashable, ai: int, ci: int,
                      situational: float) -> tuple:
        """``(tag_lo, tag_hi, rx_lo, rx_hi)`` over a link's envelope.

        Both powers fall with the distance and with the pattern loss, so
        the near, high-gain extreme bounds them from above and the far,
        low-gain extreme from below.
        """
        gain_lo, gain_hi, dist_lo, dist_hi = self._balls[(key, ai)]
        peak = self._antennas[ai].peak_gain_dbi
        reference = self._reference_loss_db[ci]
        powers = self._budget.powers_from_path_loss_dbm
        tag_hi, rx_hi = powers(reference + self._rolloff_db(dist_lo),
                               situational + (peak - gain_hi))
        tag_lo, rx_lo = powers(reference + self._rolloff_db(dist_hi),
                               situational + (peak - gain_lo))
        margin = _BOUND_MARGIN_DB
        return tag_lo - margin, tag_hi + margin, rx_lo - margin, rx_hi + margin

    def _link_powers(self, key: Hashable, ai: int, ci: int, t: float,
                     situational: float) -> tuple:
        """``(tag_power_dbm, rx_power_dbm)`` of one probe, scalar arithmetic."""
        antenna = self._antennas[ai]
        gain, distance = antenna.gain_and_distance(self._env.position_m(key, t))
        loss = situational + (antenna.peak_gain_dbi - gain)
        path_loss = self._reference_loss_db[ci] + self._rolloff_db(distance)
        return self._budget.powers_from_path_loss_dbm(path_loss, loss)

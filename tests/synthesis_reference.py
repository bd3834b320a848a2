"""Test helper: the per-read reader references.

Two references stand behind ``Reader.run``, which probes the MAC through
per-run link tables and synthesises a run's reads in whole-run passes
straight into one time-ordered :class:`~repro.reader.batch.ReportBatch`.

:func:`scalar_run` is the per-slot, per-read reader that the batched one
replaced.  Each singleton slot is probed by evaluating the tag's
trajectory and antenna pattern and calling
:meth:`~repro.rf.propagation.LinkBudget.sample_read`; each read is then
built on its own, one RF model call per term, as a frozen
:class:`~repro.reader.tagreport.TagReport`.  It makes the MAC's random
draws in the same order as the link tables, so a reader built from the
same seed reads the same (timestamp, EPC, channel, antenna) skeleton.
With per-read noise disabled the reports are identical too; with it on,
the per-read draws interleave differently.

:func:`reference_run` keeps the synthesis that touched every read in
Python:

* a pre-pass in exact event order that looks up each read's hop and
  touches its multipath tone set, circuit phase offset, static fade and
  ripple phase;
* one phase computation per (tag, channel, antenna) link;
* one frozen :class:`~repro.reader.tagreport.TagReport` per read,
  sorted by timestamp.

It drives the MAC exactly as the reader does (:func:`mac_events`) and
then synthesises with that code (:func:`build_reports`), so a reader
built from the same seed must return the same columns, byte for byte.
Tests compare the reader against this code, never against itself.
"""

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.epc.gen2 import Gen2Inventory
from repro.epc.select import SelectCommand
from repro.reader.antenna import Antenna
from repro.reader.batch import ReportBatch
from repro.reader.reader import Reader, _LinkTable
from repro.reader.tagreport import TagReport
from repro.rf.doppler import doppler_report
from repro.rf.noise import quantize_rssi


def _select_keys(env, select: Optional[SelectCommand]) -> List[Hashable]:
    """The tags that take part in the inventory."""
    keys = list(env.tag_keys())
    if select is not None:
        keys = [k for k in keys if select.matches(env.epc(k))]
    return keys


def scalar_run(reader: Reader, env, duration_s: float, t_start: float = 0.0,
               select: Optional[SelectCommand] = None) -> ReportBatch:
    """``Reader.run`` with a per-slot MAC probe and per-read synthesis."""
    keys = _select_keys(env, select)
    if not keys:
        return ReportBatch.from_reports([])
    scheduler = reader._scheduler

    def situational_and_pattern(key: Hashable, t: float, antenna: Antenna,
                                pos: np.ndarray) -> float:
        situational = env.extra_loss_db(key, t, antenna)
        if math.isinf(situational):
            return math.inf
        pattern = antenna.peak_gain_dbi - antenna.gain_dbi_toward(pos)
        return situational + pattern

    def energized(key: Hashable, t: float) -> bool:
        antenna = scheduler.active_at(t)
        pos = env.position_m(key, t)
        return not math.isinf(situational_and_pattern(key, t, antenna, pos))

    def link_ok(key: Hashable, t: float) -> bool:
        antenna = scheduler.active_at(t)
        # One position evaluation threaded through loss *and* distance.
        pos = env.position_m(key, t)
        loss = situational_and_pattern(key, t, antenna, pos)
        if math.isinf(loss):
            return False
        channel = reader._hops.channel_at(t)
        distance = antenna.distance_to(pos)
        rssi = reader._budget.sample_read(
            distance, channel.frequency_hz, reader._rng, extra_loss_db=loss
        )
        return rssi is not None

    def population(t: float) -> List[Hashable]:
        return [k for k in keys if energized(k, t)]

    inventory = Gen2Inventory(
        keys, config=reader._gen2_config, rng=reader._rng,
        link_ok=link_ok, population=population,
    )
    events = inventory.run_for(duration_s, t_start=t_start)
    reports = [_build_report(reader, env, key, t_read)
               for t_read, key in events]
    reports.sort(key=lambda r: r.timestamp_s)
    return ReportBatch.from_reports(reports)


def _radial_velocity(reader: Reader, env, key: Hashable, antenna: Antenna,
                     t: float) -> float:
    """Radial velocity toward/away from the antenna by central difference.

    The difference window is clamped into non-negative time while
    keeping its full ``2 * eps`` width.
    """
    eps = reader.VELOCITY_EPS_S
    t_lo = max(0.0, t - eps)
    t_hi = t_lo + 2.0 * eps
    d_lo = antenna.distance_to(env.position_m(key, t_lo))
    d_hi = antenna.distance_to(env.position_m(key, t_hi))
    return (d_hi - d_lo) / (2.0 * eps)


def _reported_rssi(reader: Reader, key: Hashable, antenna: Antenna, channel,
                   distance: float, loss_db: float) -> float:
    """RSSI as the reader would report it (before quantisation).

    Deterministic link budget + a static per-link fading level + a
    standing-wave ripple that moves with the tag's displacement + small
    per-read jitter.
    """
    fade, ripple_phase = reader._rssi_link_state(key, antenna.port,
                                                 channel.index)
    base = reader._budget.rx_power_dbm(
        distance, channel.frequency_hz, extra_loss_db=loss_db
    )
    ripple = reader.RSSI_RIPPLE_DB * math.sin(
        4.0 * math.pi * distance / channel.wavelength_m + ripple_phase
    )
    if reader.RSSI_JITTER_DB == 0.0:
        jitter = 0.0
    else:
        jitter = float(reader._rng.normal(0.0, reader.RSSI_JITTER_DB))
    return base + fade + ripple + jitter


def _build_report(reader: Reader, env, key: Hashable, t: float) -> TagReport:
    """One read, built term by term from the scalar RF models."""
    antenna = reader._scheduler.active_at(t)
    channel = reader._hops.channel_at(t)
    pos = env.position_m(key, t)
    distance = antenna.distance_to(pos)
    loss = env.extra_loss_db(key, t, antenna)
    loss = 0.0 if math.isinf(loss) else loss
    snr_db = reader._budget.snr_db(distance, channel.frequency_hz,
                                   extra_loss_db=loss)

    noise = reader._phase_noise.sample(snr_db, reader._rng)
    noise += reader._multipath.phase_offset(
        (key, channel.index, antenna.port), t, distance
    )
    phase = reader._phase_model_for(key, antenna.port).phase(
        distance, channel, noise)

    velocity = _radial_velocity(reader, env, key, antenna, t)
    doppler = doppler_report(
        velocity, channel.wavelength_m, reader._rng,
        phase_noise_rad=reader._phase_noise.sigma(snr_db),
    )

    rssi_dbm = _reported_rssi(reader, key, antenna, channel, distance, loss)
    return TagReport(
        epc=env.epc(key),
        timestamp_s=t,
        phase_rad=phase,
        rssi_dbm=quantize_rssi(rssi_dbm, reader.config.rssi_resolution_db),
        doppler_hz=doppler,
        channel_index=channel.index,
        antenna_port=antenna.port,
    )


def reference_run(reader: Reader, env, duration_s: float,
                  t_start: float = 0.0,
                  select: Optional[SelectCommand] = None) -> List[TagReport]:
    """``Reader.run`` (tabled MAC) with the per-read synthesis."""
    reports = build_reports(
        reader, env, mac_events(reader, env, duration_s, t_start, select))
    reports.sort(key=lambda r: r.timestamp_s)
    return reports


def mac_events(reader: Reader, env, duration_s: float, t_start: float = 0.0,
               select: Optional[SelectCommand] = None
               ) -> List[Tuple[float, Hashable]]:
    """The read events of the reader's tabled MAC pass."""
    keys = _select_keys(env, select)
    if not keys:
        return []
    links = _LinkTable(env, keys, reader._scheduler, reader._hops,
                       reader._budget, reader._rng)
    inventory = Gen2Inventory(
        keys, config=reader._gen2_config, rng=reader._rng,
        link_ok=links.link_ok, population=links.population,
    )
    return inventory.run_for(duration_s, t_start=t_start)


def build_reports(reader: Reader, env,
                  events: Sequence[Tuple[float, Hashable]]) -> List[TagReport]:
    """Synthesise a run's reports: per-read pre-pass, per-link phases."""
    if not events:
        return []
    n = len(events)
    ts = np.array([t for t, _ in events], dtype=float)
    keys_seq = [key for _, key in events]

    scheduler = reader._scheduler
    antennas = scheduler.antennas
    ant_idx = (ts / scheduler.switch_period_s).astype(int) % len(antennas)
    ports = np.array([a.port for a in antennas], dtype=int)[ant_idx]

    # --- Pre-pass: lazy per-link state, in exact event order ------------
    chan_idx = np.empty(n, dtype=int)
    fades = np.empty(n, dtype=float)
    ripple_phases = np.empty(n, dtype=float)
    for i, (t, key) in enumerate(events):
        ci = reader._hops.channel_index_at(t)  # may extend the hop sequence
        chan_idx[i] = ci
        port = int(ports[i])
        reader._multipath.ensure_link((key, ci, port))
        reader._phase_model_for(key, port)
        fades[i], ripple_phases[i] = reader._rssi_link_state(key, port, ci)

    plan = reader._hops.plan
    channels = [plan[i] for i in range(len(plan))]
    freqs = np.array([c.frequency_hz for c in channels])[chan_idx]
    lams = np.array([c.wavelength_m for c in channels])[chan_idx]

    # --- Geometry: one trajectory evaluation per tag --------------------
    by_key: Dict[Hashable, List[int]] = {}
    for i, key in enumerate(keys_seq):
        by_key.setdefault(key, []).append(i)

    position_array = getattr(env, "position_m_array", None)
    loss_array = getattr(env, "extra_loss_db_array", None)
    eps = reader.VELOCITY_EPS_S
    dist = np.empty(n, dtype=float)
    d_lo = np.empty(n, dtype=float)
    d_hi = np.empty(n, dtype=float)
    situational = np.empty(n, dtype=float)
    for key, idx_list in by_key.items():
        idx = np.asarray(idx_list, dtype=int)
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

    # --- Signal synthesis -----------------------------------------------
    budget = reader._budget
    snr = budget.snr_db(dist, freqs, extra_loss_db=loss)
    noise = reader._phase_noise.sample_array(snr, reader._rng)

    phases = np.empty(n, dtype=float)
    by_link: Dict[Tuple[Hashable, int, int], List[int]] = {}
    for i, key in enumerate(keys_seq):
        by_link.setdefault((key, int(chan_idx[i]), int(ports[i])), []).append(i)
    for (key, ci, port), idx_list in by_link.items():
        idx = np.asarray(idx_list, dtype=int)
        offsets = _phase_offset_array(reader._multipath, (key, ci, port),
                                      ts[idx], dist[idx])
        model = reader._phase_models[(key, port)]
        phases[idx] = model.phase(dist[idx], channels[ci], noise[idx] + offsets)

    doppler = doppler_report(
        velocity, lams, reader._rng,
        phase_noise_rad=reader._phase_noise.sigma(snr),
    )

    base = budget.rx_power_dbm(dist, freqs, extra_loss_db=loss)
    ripple = reader.RSSI_RIPPLE_DB * np.sin(
        4.0 * np.pi * dist / lams + ripple_phases
    )
    if reader.RSSI_JITTER_DB == 0.0:
        jitter = np.zeros(n)
    else:
        jitter = reader._rng.normal(0.0, reader.RSSI_JITTER_DB, size=n)
    rssi = quantize_rssi(
        base + fades + ripple + jitter, reader.config.rssi_resolution_db
    )

    epc_by_key = {key: env.epc(key) for key in by_key}
    return [
        TagReport(
            epc=epc_by_key[keys_seq[i]],
            timestamp_s=float(ts[i]),
            phase_rad=float(phases[i]),
            rssi_dbm=float(rssi[i]),
            doppler_hz=float(doppler[i]),
            channel_index=int(chan_idx[i]),
            antenna_port=int(ports[i]),
        )
        for i in range(n)
    ]


def _phase_offset_array(multipath, link_key, t: np.ndarray,
                        distance_m: np.ndarray) -> np.ndarray:
    """One link's clutter phase distortion over a time vector."""
    t = np.asarray(t, dtype=float)
    if multipath._a_ref == 0.0:
        return np.zeros_like(t)
    freqs, phases, weights = multipath._components_for(link_key)
    amp = multipath.amplitude_rad(distance_m)
    tones = np.sin(2.0 * np.pi * np.outer(t, freqs) + phases)
    return amp * (tones @ weights)

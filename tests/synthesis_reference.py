"""Test helper: the per-read report synthesis reference.

``Reader.run`` synthesises a run's reads in whole-run passes straight
into one time-ordered :class:`~repro.reader.batch.ReportBatch`: the lazy
per-link draws are made only at each link's first touch (and at the
reads past the last materialised hop), and the phase of every read is
one elementwise pass.  This module keeps the form it replaced, which
touched every read in Python:

* a pre-pass in exact event order that looks up each read's hop and
  touches its multipath tone set, circuit phase offset, static fade and
  ripple phase;
* one phase computation per (tag, channel, antenna) link;
* one frozen :class:`~repro.reader.tagreport.TagReport` per read,
  sorted by timestamp.

:func:`reference_run` drives the MAC exactly as the vectorised reader
does (:func:`mac_events`) and then synthesises with that code
(:func:`build_reports`), so a reader built from the same seed must
return the same columns, byte for byte.  Tests compare
the reader against this code, never against itself.
"""

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.epc.gen2 import Gen2Inventory
from repro.epc.select import SelectCommand
from repro.reader.reader import Reader, _LinkTable
from repro.reader.tagreport import TagReport
from repro.rf.doppler import doppler_report
from repro.rf.noise import quantize_rssi


def reference_run(reader: Reader, env, duration_s: float,
                  t_start: float = 0.0,
                  select: Optional[SelectCommand] = None) -> List[TagReport]:
    """``Reader.run`` (vectorised MAC) with the per-read synthesis."""
    reports = build_reports(
        reader, env, mac_events(reader, env, duration_s, t_start, select))
    reports.sort(key=lambda r: r.timestamp_s)
    return reports


def mac_events(reader: Reader, env, duration_s: float, t_start: float = 0.0,
               select: Optional[SelectCommand] = None
               ) -> List[Tuple[float, Hashable]]:
    """The read events of the vectorised reader's MAC pass."""
    keys = list(env.tag_keys())
    if select is not None:
        keys = [k for k in keys if select.matches(env.epc(k))]
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

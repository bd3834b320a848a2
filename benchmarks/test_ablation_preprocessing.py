"""Ablation — preprocessing representation: samples vs literal increments.

DESIGN.md §6 item 1: the production pipeline reconstructs per-channel
*unwrapped displacement samples* (Eq. 3/4 telescoped per channel + the
Fig. 6 normalisation), while the paper's text reads as per-read increment
fusion (Eq. 6/7 literally).  The increments form accumulates dwell-
boundary endpoint noise into a random walk; the samples form does not.
This ablation quantifies the gap — the reproduction's most consequential
engineering decision.  The engine runs only the samples form; the
literal form lives here, as :func:`literal_increments_track`.
"""

import numpy as np

from repro import Scenario, TagBreathe, breathing_rate_accuracy, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.core import default_frequencies
from repro.core.preprocess import hampel_streams
from repro.errors import InsufficientDataError
from repro.streams import TimeSeries, bin_sum
from repro.units import SPEED_OF_LIGHT, wrap_phase_delta

from conftest import print_reproduction

DISTANCES_M = (2.0, 4.0, 6.0)

#: The literal arm differences reads only within one 0.2 s channel dwell:
#: a same-(channel, antenna) gap above this starts a new chain, because a
#: channel recurs only every ~2 s, which aliases breathing above ~15 bpm.
LITERAL_MAX_GAP_S = 0.15

#: Moving-average window (reads) on each chain's unwrapped phase: it cuts
#: the chain endpoints' noise, which Eq. (4)'s running sum keeps.
LITERAL_SMOOTH_K = 3


def literal_increments_track(engine, reports):
    """Eq. (3), (6) and (7) read literally, over one user's reports.

    Each tag's reads are chained per (channel, antenna) dwell, unwrapped,
    smoothed and differenced into displacement increments (Eq. 3).  The
    engine's Hampel rejection drops outlying increments per tag; the
    survivors are summed per Delta-t bin on one grid (Eq. 6) and
    accumulated (Eq. 7).
    """
    coef = [SPEED_OF_LIGHT / f / (4.0 * np.pi) for f in default_frequencies()]
    streams = {}  # tag -> ([time], [increment])
    chains = {}   # (tag, channel, antenna) -> (last time, last phase, [unwrapped])
    order = np.argsort(reports.t, kind="stable")
    for t, phase, chan, port, tag in zip(
            *(col[order].tolist() for col in (
                reports.t, reports.phase, reports.channel, reports.antenna,
                reports.tag_id))):
        times, deltas = streams.setdefault(tag, ([], []))
        key = (tag, chan, port)
        chain = chains.get(key)
        if chain is None or not 0.0 < t - chain[0] <= LITERAL_MAX_GAP_S:
            chains[key] = (t, phase, [phase])
            continue
        unwrapped = chain[2]
        unwrapped.append(unwrapped[-1] + wrap_phase_delta(phase - chain[1]))
        chains[key] = (t, phase, unwrapped)
        before = unwrapped[-LITERAL_SMOOTH_K - 1:-1]
        after = unwrapped[-LITERAL_SMOOTH_K:]
        times.append(t)
        deltas.append(coef[chan] * (sum(after) / len(after)
                                    - sum(before) / len(before)))
    per_tag = []
    for times, deltas in streams.values():
        t, d = np.asarray(times), np.asarray(deltas)
        keep = np.diff(t, prepend=-np.inf) > 0
        per_tag.append((t[keep], d[keep]))
    rb = engine.robustness
    counts = np.array([t.shape[0] for t, _d in per_tag])
    if rb.outlier_rejection and counts.sum():
        flagged = hampel_streams(np.concatenate([d for _t, d in per_tag]),
                                 counts, rb.hampel_window, rb.hampel_n_sigmas)
        kept = np.split(~flagged, np.cumsum(counts)[:-1])
        per_tag = [(t[k], d[k]) for (t, d), k in zip(per_tag, kept)]
    per_tag = [TimeSeries(t, d) for t, d in per_tag if t.shape[0]]
    if not per_tag:
        raise InsufficientDataError("no displacement increments to fuse")
    lo = min(s.start for s in per_tag)
    hi = max(s.end for s in per_tag) + 1e-9
    bin_s = engine.config.fusion_bin_s
    fused = bin_sum(per_tag[0], bin_s, t_start=lo, t_end=hi)
    for stream in per_tag[1:]:
        fused = TimeSeries.from_trusted(
            fused.times,
            fused.values + bin_sum(stream, bin_s, t_start=lo, t_end=hi).values)
    return fused.cumsum()


def literal_increments_rate(reports):
    """The literal arm's breathing rate (bpm), or None with no estimate."""
    engine = TagBreathe(user_ids={1})
    try:
        return engine.extractor.estimate(
            literal_increments_track(engine, reports)).rate_bpm
    except InsufficientDataError:
        return None


def compare_modes():
    out = {}
    for distance in DISTANCES_M:
        accs = {"samples": [], "increments": []}
        for seed, rate in enumerate((9.0, 15.0)):
            scenario = Scenario([Subject(user_id=1, distance_m=distance,
                                         breathing=MetronomeBreathing(rate),
                                         sway_seed=seed)])
            result = run_scenario(scenario, duration_s=60.0,
                                  seed=601 + seed + int(distance))
            estimates = TagBreathe(user_ids={1}).process(result.reports)
            rates = {
                "samples": estimates[1].rate_bpm if 1 in estimates else None,
                "increments": literal_increments_rate(
                    result.reports_for_user(1)),
            }
            for mode, estimate in rates.items():
                accs[mode].append(
                    breathing_rate_accuracy(estimate, rate)
                    if estimate is not None else 0.0
                )
        out[distance] = {mode: float(np.mean(vals)) for mode, vals in accs.items()}
    return out


def test_ablation_preprocessing(benchmark, capsys):
    results = benchmark.pedantic(compare_modes, rounds=1, iterations=1)
    rows = [
        (f"{d:.0f} m",
         f"{results[d]['samples'] * 100:.1f}%",
         f"{results[d]['increments'] * 100:.1f}%")
        for d in DISTANCES_M
    ]
    print_reproduction(
        capsys, "Ablation: samples (production) vs increments (paper-literal)",
        ("distance", "samples (engine)", "increments (literal)"), rows,
        paper_note="unwrapped-sample preprocessing avoids the dwell-stitch "
                   "random walk; see DESIGN.md",
    )
    # The production representation dominates at every distance.
    for d in DISTANCES_M:
        assert results[d]["samples"] >= results[d]["increments"] - 0.02
    # And keeps the paper's >90% bar where the literal form cannot.
    assert all(results[d]["samples"] > 0.9 for d in DISTANCES_M)

"""The column fault injectors against the report-list reference.

``repro.faults`` injects every fault as a column transform over a
``ReportBatch``; ``tests/fault_reference.py`` keeps the report-list
injectors those transforms replaced.  For any injector, severity, seed
and capture, and for chains of them, the column output must equal the
packed reference output on all eight columns, floats compared by bit
pattern, with the input batch left as it was.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    ALL_INJECTORS,
    AntennaOutage,
    BurstyDrop,
    DuplicateReports,
    FaultChain,
    InterferenceBurst,
    MotionBurst,
    OutOfOrderDelivery,
    PhaseOutliers,
    PhasePiFlips,
    ReportDrop,
    TagDeath,
    TagDropout,
    TimestampJitter,
)
from repro.reader.batch import COLUMNS, ReportBatch
from repro.units import TWO_PI

from . import fault_reference

_row = st.tuples(
    # Times on a 0.25 s grid tie across streams; free floats do not.
    st.one_of(st.integers(0, 40).map(lambda k: k * 0.25),
              st.floats(0.0, 12.0)),
    st.one_of(st.sampled_from([0.0, np.pi, float(np.nextafter(TWO_PI, 0.0)),
                               TWO_PI]),
              st.floats(0.0, TWO_PI, exclude_max=True)),
    st.floats(-80.0, -30.0),                               # rssi
    st.floats(-5.0, 5.0),                                  # doppler
    st.integers(0, 9),                                     # channel
    st.integers(1, 4),                                     # antenna
    st.sampled_from([1, 2, 7, 2**63, 2**64 - 1]),          # user_id
    st.sampled_from([0, 1, 5, 2**32 - 1]),                 # tag_id
)

_captures = st.lists(_row, min_size=0, max_size=40).map(
    lambda rows: ReportBatch(*(list(col) for col in zip(*rows)))
    if rows else ReportBatch.from_reports([]))

_severity = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_span_s = st.floats(0.1, 4.0)

_INJECTORS = {
    ReportDrop: st.builds(ReportDrop, _severity),
    BurstyDrop: st.builds(BurstyDrop, _severity, burst_s=_span_s),
    InterferenceBurst: st.builds(InterferenceBurst, _severity,
                                 burst_s=_span_s),
    TagDropout: st.builds(TagDropout, _severity, outage_s=_span_s),
    TagDeath: st.builds(TagDeath, _severity,
                        num_victims=st.integers(1, 4)),
    AntennaOutage: st.builds(
        AntennaOutage, _severity,
        port=st.one_of(st.none(), st.integers(1, 4)),
        align=st.sampled_from(["random", "start", "end"])),
    PhaseOutliers: st.builds(PhaseOutliers, _severity,
                             magnitude_rad=st.floats(0.01, TWO_PI)),
    PhasePiFlips: st.builds(PhasePiFlips, _severity),
    TimestampJitter: st.builds(TimestampJitter, _severity,
                               max_jitter_s=st.floats(0.001, 0.5)),
    DuplicateReports: st.builds(DuplicateReports, _severity),
    OutOfOrderDelivery: st.builds(OutOfOrderDelivery, _severity,
                                  max_delay_s=st.floats(0.01, 1.0)),
    MotionBurst: st.builds(MotionBurst, _severity, burst_s=_span_s,
                           excursion_m=st.floats(0.01, 3.0)),
}


def _bits(batch):
    """Each column as dtype and raw bytes (floats by bit pattern)."""
    return [(getattr(batch, name).dtype, getattr(batch, name).tobytes())
            for name, _ in COLUMNS]


def test_every_injector_has_a_strategy():
    assert set(_INJECTORS) == set(ALL_INJECTORS)


@pytest.mark.parametrize("cls", ALL_INJECTORS, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), capture=_captures,
       seed=st.integers(0, 2**32 - 1))
def test_injector_matches_reference(cls, data, capture, seed):
    injector = data.draw(_INJECTORS[cls])
    before = _bits(capture)
    got = injector.apply(capture, np.random.default_rng(seed))
    want = fault_reference.apply(injector, capture.to_reports(),
                                 np.random.default_rng(seed))
    assert _bits(got) == _bits(ReportBatch.from_reports(want))
    assert _bits(capture) == before
    if injector.severity == 0.0 or not len(capture):
        assert got is capture


@settings(max_examples=80, deadline=None)
@given(stages=st.lists(st.one_of(*_INJECTORS.values()), max_size=4),
       capture=_captures, seed=st.integers(0, 2**32 - 1))
def test_chain_matches_reference(stages, capture, seed):
    chain = FaultChain(stages, seed=seed)
    got = chain.apply(capture)
    want = fault_reference.apply_chain(chain, capture.to_reports())
    assert _bits(got) == _bits(ReportBatch.from_reports(want))
    assert sum(s.dropped for s in chain.last_stats) == len(capture) - len(got)

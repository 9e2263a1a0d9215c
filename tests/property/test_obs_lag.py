"""Property test: the tracer's instrument-side lag equals the bench-side
lag computed from external bookkeeping.

The Fig. 11 bench historically measured the generated-vs-published SCN
gap from its own ``MetricsSampler`` series.  The lifecycle tracer is
supposed to reproduce the identical lag curve from instruments alone, so
for *any* interleaving of generation and publication events the two
computations must agree pointwise: the tracer's ``scn_gap_at`` /
``worst_scn_gap`` against a reference built from the very same events
with :class:`repro.metrics.stats.TimeSeries` step interpolation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import TimeSeries
from repro.obs import MetricsRegistry, RedoLifecycleTracer


class Clock:
    def __init__(self):
        self.now = 0.0


@st.composite
def event_schedules(draw):
    """A time-ordered interleaving of generation and publication events.

    Generated SCNs rise strictly per thread; publications carry arbitrary
    (possibly regressing -- MIRA per-instance) SCN values.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    n_threads = draw(st.integers(min_value=1, max_value=3))
    events = []
    t = 0.0
    next_scn = {thread: 0 for thread in range(1, n_threads + 1)}
    for __ in range(n):
        t += draw(st.floats(min_value=0.01, max_value=1.0))
        if draw(st.booleans()):
            thread = draw(st.integers(min_value=1, max_value=n_threads))
            next_scn[thread] += draw(st.integers(min_value=1, max_value=20))
            scn = max(next_scn.values())
            next_scn[thread] = scn
            events.append(("generate", t, thread, scn))
        else:
            events.append(
                ("publish", t, None,
                 draw(st.integers(min_value=0, max_value=200)))
            )
    return events


@given(event_schedules())
@settings(max_examples=120, deadline=None)
def test_instrument_lag_matches_reference_bookkeeping(events):
    clock = Clock()
    registry = MetricsRegistry()
    tracer = RedoLifecycleTracer(clock, registry)

    # reference (bench-side) bookkeeping, fed from the same events
    ref_generated = {}
    ref_published = TimeSeries("published")
    published_watermark = 0

    for kind, t, thread, scn in events:
        clock.now = t
        if kind == "generate":
            tracer.record_generated(thread, scn, 1)
            ref_generated.setdefault(thread, TimeSeries(str(thread)))
            ref_generated[thread].record(t, scn)
        else:
            tracer.record_published(scn)
            if scn > published_watermark:
                published_watermark = scn
                ref_published.record(t, scn)

    def ref_value(series, t):
        value = 0.0
        for point_t, point_value in series.points:
            if point_t > t:
                break
            value = point_value
        return value

    # pointwise agreement at every event time (and between events)
    sample_times = sorted(
        {t for __, t, ___, ____ in events}
        | {t + 0.005 for __, t, ___, ____ in events}
    )
    for t in sample_times:
        generated = max(
            (ref_value(s, t) for s in ref_generated.values()), default=0.0
        )
        expected = max(0.0, generated - ref_value(ref_published, t))
        assert tracer.scn_gap_at(t) == expected
        for thread, series in ref_generated.items():
            expected_thread = max(
                0.0, ref_value(series, t) - ref_value(ref_published, t)
            )
            assert tracer.scn_gap_at(t, thread=thread) == expected_thread

    # worst gap agreement: max over generation sample times
    expected_worst = 0.0
    for series in ref_generated.values():
        for t, generated in series.points:
            expected_worst = max(
                expected_worst, generated - ref_value(ref_published, t)
            )
    assert tracer.worst_scn_gap() == expected_worst

    # the published series never regresses
    values = [v for __, v in tracer.published_series.points]
    assert values == sorted(values)

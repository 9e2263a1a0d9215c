"""Property test: the tracer's instrument-side lag equals the bench-side
lag computed from external bookkeeping.

The Fig. 11 bench historically measured the generated-vs-published SCN
gap from its own ``MetricsSampler`` series.  The lifecycle tracer is
supposed to reproduce the identical lag curve from instruments alone, so
for *any* interleaving of generation and publication events the two
computations must agree pointwise: the tracer's ``scn_gap_at`` /
``worst_scn_gap`` against a reference built from the very same events as
plain point lists read by a linear step walk.  The same walk is the
oracle for :meth:`repro.obs.Series.value_at`, which bisects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, RedoLifecycleTracer, Series


class Clock:
    def __init__(self):
        self.now = 0.0


def ref_value(points, t):
    """Step interpolation by a linear walk: the last value at or before
    ``t``, 0 before the first point."""
    value = 0.0
    for point_t, point_value in points:
        if point_t > t:
            break
        value = point_value
    return value


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
    ref_published = []
    published_watermark = 0

    for kind, t, thread, scn in events:
        clock.now = t
        if kind == "generate":
            tracer.record_generated(thread, scn, 1)
            ref_generated.setdefault(thread, []).append((t, scn))
        else:
            tracer.record_published(scn)
            if scn > published_watermark:
                published_watermark = scn
                ref_published.append((t, scn))

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
    for points in ref_generated.values():
        for t, generated in points:
            expected_worst = max(
                expected_worst, generated - ref_value(ref_published, t)
            )
    assert tracer.worst_scn_gap() == expected_worst

    # the published series never regresses
    values = [v for __, v in tracer.published_series.points]
    assert values == sorted(values)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=30,
    ),
    st.lists(st.floats(min_value=-1.0, max_value=100.0), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_series_value_at_equals_a_linear_step_walk(steps, queries):
    """Points arrive in time order (equal times allowed: the later one
    wins); every read, including before the first point, between points
    and exactly on one, matches the walk."""
    series = Series("s")
    t = 0.0
    for dt, value in steps:
        t += dt / 2  # 0 repeats the previous time
        series.record(t, value)
    for q in queries + [t for t, __ in series.points]:
        assert series.value_at(q) == ref_value(series.points, q)

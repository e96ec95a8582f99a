"""Unit tests for statistics helpers and result containers."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import stats
from repro.metrics.results import AppRunResult, RepeatedResult

_INTS = st.integers(min_value=-(2**63), max_value=2**63)

#: arbitrary results, every field drawn independently
RESULTS = st.builds(
    AppRunResult,
    app_name=st.text(max_size=8),
    balancer=st.text(max_size=8),
    n_cores=_INTS,
    n_threads=_INTS,
    seed=_INTS,
    elapsed_us=_INTS,
    total_work_us=_INTS,
    migrations=_INTS,
    thread_exec_us=st.lists(_INTS, max_size=6),
    thread_compute_us=st.lists(_INTS, max_size=6),
    thread_finish_us=st.lists(_INTS, max_size=6),
    system_migrations=_INTS,
)


def run(elapsed, seed=0, total_work=1_000_000, migrations=0, **kwargs):
    defaults = dict(
        app_name="app",
        balancer="speed",
        n_cores=4,
        n_threads=8,
        seed=seed,
        elapsed_us=elapsed,
        total_work_us=total_work,
        migrations=migrations,
    )
    defaults.update(kwargs)
    return AppRunResult(**defaults)


class TestStats:
    def test_mean(self):
        assert stats.mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            stats.mean([])

    def test_geomean(self):
        assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stats.geomean([1.0, 0.0])

    def test_variation_pct(self):
        # max/min = 1.5 -> 50%
        assert stats.variation_pct([100.0, 120.0, 150.0]) == pytest.approx(50.0)

    def test_variation_zero_when_stable(self):
        assert stats.variation_pct([5.0, 5.0]) == 0.0

    def test_variation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stats.variation_pct([0.0, 1.0])

    def test_ratio_of_means(self):
        assert stats.ratio_of_means([200.0], [100.0]) == 2.0

    def test_ratio_of_worsts(self):
        assert stats.ratio_of_worsts([100.0, 300.0], [100.0, 150.0]) == 2.0

    def test_coefficient_of_variation(self):
        assert stats.coefficient_of_variation([2.0, 2.0]) == 0.0
        assert stats.coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_cv_zero_mean_raises(self):
        with pytest.raises(ValueError):
            stats.coefficient_of_variation([1.0, -1.0])


class TestAppRunResult:
    def test_speedup(self):
        r = run(elapsed=250_000, total_work=1_000_000)
        assert r.speedup == 4.0

    def test_spin_fraction(self):
        r = run(
            elapsed=100,
            thread_exec_us=[100, 100],
            thread_compute_us=[50, 100],
        )
        assert r.spin_fraction == pytest.approx(0.25)

    def test_spin_fraction_empty(self):
        assert run(elapsed=100).spin_fraction == 0.0

    def test_progress_balance(self):
        r = run(elapsed=100, thread_compute_us=[50, 100])
        assert r.progress_balance == 0.5

    def test_progress_balance_trivial(self):
        assert run(elapsed=100).progress_balance == 1.0
        assert run(elapsed=100, thread_compute_us=[0, 0]).progress_balance == 1.0


class TestRepeatedResult:
    def test_requires_runs(self):
        with pytest.raises(ValueError):
            RepeatedResult(runs=[])

    def test_aggregates(self):
        rr = RepeatedResult(runs=[run(100_000, 0), run(150_000, 1), run(120_000, 2)])
        assert rr.mean_time_us == pytest.approx(123_333.33, rel=1e-4)
        assert rr.worst_time_us == 150_000
        assert rr.best_time_us == 100_000
        assert rr.variation_pct == pytest.approx(50.0)

    def test_mean_speedup(self):
        rr = RepeatedResult(runs=[run(250_000), run(500_000)])
        assert rr.mean_speedup == pytest.approx((4.0 + 2.0) / 2)

    def test_mean_migrations(self):
        rr = RepeatedResult(runs=[run(1, migrations=4), run(1, migrations=6)])
        assert rr.mean_migrations == 5.0

    def test_improvement_avg_pct(self):
        fast = RepeatedResult(runs=[run(100_000)])
        slow = RepeatedResult(runs=[run(150_000)])
        assert fast.improvement_avg_pct(slow) == pytest.approx(50.0)
        assert slow.improvement_avg_pct(fast) == pytest.approx(-33.33, rel=1e-2)

    def test_improvement_worst_pct(self):
        fast = RepeatedResult(runs=[run(90_000), run(100_000)])
        slow = RepeatedResult(runs=[run(90_000), run(170_000)])
        assert fast.improvement_worst_pct(slow) == pytest.approx(70.0)


class TestResultPortability:
    """Results cross process boundaries (parallel harness) and files."""

    def sample(self):
        return run(250_000, seed=3, migrations=2,
                   thread_exec_us=[1, 2], thread_compute_us=[1, 1],
                   thread_finish_us=[9, 10], system_migrations=5)

    def test_pickle_roundtrip_is_equal(self):
        import pickle

        r = self.sample()
        assert pickle.loads(pickle.dumps(r)) == r
        rr = RepeatedResult(runs=[r, run(300_000, seed=4)])
        assert pickle.loads(pickle.dumps(rr)) == rr

    def test_as_dict_is_json_canonical(self):
        r = self.sample()
        d = r.as_dict()
        assert d["elapsed_us"] == 250_000
        assert d["thread_finish_us"] == [9, 10]
        # canonical form: byte-identical iff the results are equal
        assert json.dumps(d, sort_keys=True) == \
            json.dumps(self.sample().as_dict(), sort_keys=True)
        assert json.dumps(d, sort_keys=True) != \
            json.dumps(run(250_001, seed=3).as_dict(), sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(result=RESULTS)
    def test_canonical_json_matches_the_asdict_form(self, result):
        expected = dataclasses.asdict(result)
        d = result.as_dict()
        assert d == expected
        assert result.canonical_json() == json.dumps(
            expected, sort_keys=True, separators=(",", ":")
        )
        # the lists are copies: editing the dict leaves the result alone
        for name in ("thread_exec_us", "thread_compute_us", "thread_finish_us"):
            d[name].append(0)
        assert dataclasses.asdict(result) == expected

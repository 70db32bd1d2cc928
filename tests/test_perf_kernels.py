"""Fast-path / generic-path equality — the `repro.perf` contract.

The integer kernels must produce *bit-identical* results to the generic
exact path on every all-int input: same response values, same
schedulability verdicts, same critical offsets.  These tests drive both
paths over >1000 seeded-random task sets (including jitter,
constrained-deadline and ``strict_start`` variants) plus random PROFIBUS
networks, and check the kernel primitives against exact rational
arithmetic with hypothesis.

Each path gets its own freshly-built (value-equal) inputs: results are
memoised on the immutable objects, so reusing one instance across modes
would let the second run trivially read the first run's answers.
"""

import math
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Task,
    TaskSet,
    assign_deadline_monotonic,
    edf_rta,
    nonpreemptive_rta,
    preemptive_rta,
    synchronous_busy_period,
)
from repro.core.edf_rta import edf_response_time
from repro.core.rta_fixed import (
    nonpreemptive_start_time,
    preemptive_response_time_arbitrary,
)
from repro.core.timeops import fixed_point, fixed_point_int
from repro.perf import kernels
from repro.perf.config import (
    analysis_mode,
    analysis_mode_set,
    fast_path_enabled,
)


def random_tasks(rng, n=None, t_max=60, allow_jitter=True,
                 constrained=True):
    """Spec list for one random integer task set (used to build the set
    twice — once per path).

    Per-task utilisation is capped below ``1/n`` so the set stays
    strictly under full utilisation: at exact ``U = 1`` with near-coprime
    periods the busy period converges only at hyperperiod scale, which
    both paths handle identically but the test budget cannot afford.
    """
    n = n or rng.randint(2, 5)
    while True:
        specs = []
        budget = 0.95  # aim below full utilisation …
        for i in range(n):
            T = rng.randint(3, t_max)
            c_max = max(1, min(int(budget * T), T - 1))
            C = rng.randint(1, c_max)
            budget = max(0.01, budget - C / T)
            if constrained and rng.random() < 0.5:
                D = rng.randint(C, T)
            else:
                D = T
            J = (rng.randint(0, T // 3)
                 if allow_jitter and rng.random() < 0.4 else 0)
            specs.append((C, T, D, J))
        # … and enforce it exactly (the min-1 execution times can push a
        # draw over the float guards into hyperperiod-scale iterations).
        if sum(Fraction(c, t) for c, t, _d, _j in specs) < Fraction(99, 100):
            return specs


def build(specs):
    return TaskSet(
        Task(C=c, T=t, D=d, J=j, name=f"t{i}")
        for i, (c, t, d, j) in enumerate(specs)
    )


def rt_values(result):
    return [(rt.value, rt.critical_a) for rt in result.per_task]


class TestFixedPriorityEquality:
    """~600 random task sets through the FP analyses, both paths."""

    N_SETS = 600

    def test_preemptive_and_nonpreemptive_match_generic(self):
        rng = random.Random(20260730)
        for case in range(self.N_SETS):
            specs = random_tasks(rng)
            dm_fast = assign_deadline_monotonic(build(specs))
            dm_slow = assign_deadline_monotonic(build(specs))
            for fn in (
                preemptive_rta,
                nonpreemptive_rta,
                lambda ts: nonpreemptive_rta(ts, strict_start=False),
            ):
                fast = fn(dm_fast)
                with analysis_mode_set("generic"):
                    slow = fn(dm_slow)
                assert rt_values(fast) == rt_values(slow), (case, specs)
                assert fast.schedulable == slow.schedulable

    def test_arbitrary_deadline_matches_generic(self):
        rng = random.Random(77)
        for case in range(150):
            specs = random_tasks(rng, constrained=False)
            dm_fast = assign_deadline_monotonic(build(specs))
            dm_slow = assign_deadline_monotonic(build(specs))
            for task_idx in range(len(specs)):
                fast = preemptive_response_time_arbitrary(
                    dm_fast, dm_fast[task_idx]
                )
                with analysis_mode_set("generic"):
                    slow = preemptive_response_time_arbitrary(
                        dm_slow, dm_slow[task_idx]
                    )
                assert fast.value == slow.value, (case, specs, task_idx)

    def test_start_time_matches_generic(self):
        rng = random.Random(4242)
        for case in range(150):
            specs = random_tasks(rng)
            dm_fast = assign_deadline_monotonic(build(specs))
            dm_slow = assign_deadline_monotonic(build(specs))
            for task_idx in range(len(specs)):
                for strict in (True, False):
                    fast = nonpreemptive_start_time(
                        dm_fast, dm_fast[task_idx], strict_start=strict
                    )
                    with analysis_mode_set("generic"):
                        slow = nonpreemptive_start_time(
                            dm_slow, dm_slow[task_idx], strict_start=strict
                        )
                    if fast is None or slow is None:
                        assert fast is None and slow is None
                    else:
                        assert fast[0] == slow[0], (case, specs, task_idx)


class TestEdfEquality:
    """~400 random task sets through the EDF scans, both paths."""

    N_SETS = 400

    def test_edf_rta_matches_generic(self):
        rng = random.Random(918273)
        for case in range(self.N_SETS):
            specs = random_tasks(rng, t_max=40)
            ts_fast, ts_slow = build(specs), build(specs)
            for preemptive in (True, False):
                fast = edf_rta(ts_fast, preemptive=preemptive)
                with analysis_mode_set("generic"):
                    slow = edf_rta(ts_slow, preemptive=preemptive)
                assert rt_values(fast) == rt_values(slow), (
                    case, specs, preemptive,
                )

    def test_blocking_variants_match_generic(self):
        rng = random.Random(5150)
        for case in range(120):
            specs = random_tasks(rng, t_max=40)
            ts_fast, ts_slow = build(specs), build(specs)
            for subtract_one in (True, False):
                for idx in range(len(specs)):
                    fast = edf_response_time(
                        ts_fast, ts_fast[idx], preemptive=False,
                        blocking_subtract_one=subtract_one,
                    )
                    with analysis_mode_set("generic"):
                        slow = edf_response_time(
                            ts_slow, ts_slow[idx], preemptive=False,
                            blocking_subtract_one=subtract_one,
                        )
                    assert (fast.value, fast.critical_a) == (
                        slow.value, slow.critical_a,
                    ), (case, specs, subtract_one, idx)


class TestBusyPeriodEquality:
    def test_matches_generic(self):
        rng = random.Random(31337)
        for case in range(300):
            specs = random_tasks(rng)
            blocking = rng.choice([0, 0, rng.randint(1, 10)])
            ts_fast, ts_slow = build(specs), build(specs)
            for jitter in (False, True):
                try:
                    fast = synchronous_busy_period(
                        ts_fast, include_jitter=jitter, blocking=blocking
                    )
                except ValueError:
                    with analysis_mode_set("generic"), \
                            pytest.raises(ValueError):
                        synchronous_busy_period(
                            ts_slow, include_jitter=jitter, blocking=blocking
                        )
                    continue
                with analysis_mode_set("generic"):
                    slow = synchronous_busy_period(
                        ts_slow, include_jitter=jitter, blocking=blocking
                    )
                assert fast == slow, (case, specs, jitter, blocking)


class TestNetworkEquality:
    """Whole-master kernels (eqs. (11)/(16)/(17)) against the staged
    TaskSet path over random networks."""

    def test_policies_match_generic(self):
        from repro.gen import random_network
        from repro.profibus import analyse, tdel

        tightness = (1.0, 0.5, 0.3, 0.15)
        for i in range(60):
            x = tightness[i % len(tightness)]

            def make():
                net = random_network(
                    n_masters=2 + i % 3,
                    streams_per_master=2 + i % 4,
                    seed=i * 37 + int(x * 100),
                    d_over_t=(x * 0.6, x),
                    payload_range=(2, 16),
                )
                return net.with_ttr(
                    max(net.ring_latency(), tdel(net) // 2)
                )

            for policy in ("fcfs", "dm", "edf"):
                fast = analyse(make(), policy)
                with analysis_mode_set("generic"):
                    slow = analyse(make(), policy)
                assert [
                    (sr.R, sr.Q, sr.critical_a) for sr in fast.per_stream
                ] == [
                    (sr.R, sr.Q, sr.critical_a) for sr in slow.per_stream
                ], (i, x, policy)
                assert fast.schedulable == slow.schedulable

    def test_jittered_streams_match_generic(self):
        from repro.gen import random_network
        from repro.profibus import analyse, tdel

        for i in range(25):

            def make():
                net = random_network(
                    n_masters=2, streams_per_master=3, seed=i,
                    d_over_t=(0.3, 0.9),
                )
                masters = tuple(
                    m.with_streams(
                        s.with_jitter(s.T // (7 + j))
                        for j, s in enumerate(m.streams)
                    )
                    for m in net.masters
                )
                net = net.__class__(
                    masters=masters, slaves=net.slaves, phy=net.phy
                )
                return net.with_ttr(
                    max(net.ring_latency(), tdel(net) // 2)
                )

            for policy in ("dm", "edf"):
                fast = analyse(make(), policy)
                with analysis_mode_set("generic"):
                    slow = analyse(make(), policy)
                assert [sr.R for sr in fast.per_stream] == [
                    sr.R for sr in slow.per_stream
                ], (i, policy)


class TestKernelPrimitives:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 50), st.integers(1, 50), st.integers(0, 50)
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_seed_params_never_overshoots(self, hp, base):
        """The utilisation seed is a true lower bound on the least fixed
        point of the ceiling map (checked against exact Fractions)."""
        params = kernels.seed_params(hp)
        util = sum(Fraction(c, t) for c, t, _ in hp)
        if util >= 1:
            assert params is None
            return
        seed = kernels.seed_from(params, base, 0)
        exact = (
            Fraction(base) + sum(Fraction(c * j, t) for c, t, j in hp)
        ) / (1 - util)
        assert seed == math.ceil(exact)
        # and the map at the seed does not fall below the seed: iterating
        # from it climbs to the same least fixed point the generic path
        # reaches from below.
        step = base + sum(
            -((-seed - j) // t) * c for c, t, j in hp
        )
        assert step >= seed

    @given(st.integers(0, 10**6), st.integers(1, 10**4), st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_int_matches_generic(self, c, t, limit_scale):
        def f(x):
            return c + -((-x) // t)

        limit = limit_scale * (c + t)
        generic = fixed_point(f, c, limit=limit)
        fast = fixed_point_int(f, c, limit=limit)
        assert generic == fast

    def test_candidate_offsets_matches_generic(self):
        from repro.core.edf_rta import _candidate_offsets

        rng = random.Random(64)
        for _ in range(100):
            specs = random_tasks(rng, t_max=30)
            ts = build(specs)
            for idx in range(len(specs)):
                horizon = rng.randint(10, 200)
                generic = _candidate_offsets(ts, ts[idx], horizon)
                arrays = kernels.candidate_offsets(
                    [(t.T, t.D, t.J) for t in ts], ts[idx].D, horizon
                )
                assert generic == arrays


class TestConfigToggle:
    def test_context_manager_restores(self):
        assert fast_path_enabled()
        with analysis_mode_set("generic"):
            assert not fast_path_enabled()
            with analysis_mode_set("generic"):
                assert not fast_path_enabled()
            assert not fast_path_enabled()
        assert fast_path_enabled()

    def test_unknown_mode_is_rejected_and_changes_nothing(self):
        with pytest.raises(ValueError, match="unknown analysis mode"):
            with analysis_mode_set("turbo"):
                pass
        assert analysis_mode() == "fast"

    def test_mode_is_scoped_to_its_thread(self):
        seen = []
        with analysis_mode_set("generic"):
            worker = threading.Thread(
                target=lambda: seen.append(analysis_mode())
            )
            worker.start()
            worker.join()
            assert analysis_mode() == "generic"
        assert seen == ["fast"]
        assert analysis_mode() == "fast"

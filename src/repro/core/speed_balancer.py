"""``SpeedBalancer``: the paper's user-level speed balancing algorithm.

Section 5 of the paper, step by step.  One balancer per user-requested
core wakes every *balance interval* (100 ms default, "also the value of
the system scheduler time quanta"), plus a random jitter of up to one
interval ("to help break cycles where tasks move repeatedly between
two queues ... we introduce randomness in the balancing interval on
each core").  When balancer *j* wakes it:

1. computes the speed ``s_i`` of every monitored thread on its local
   core over the elapsed interval;
2. computes the local core speed ``s_j = average(s_i)``;
3. computes the global core speed ``s_global = average(s_j)`` over all
   cores (from the shared, possibly slightly stale, published values
   -- the algorithm is distributed and unsynchronized);
4. if ``s_j > s_global`` it attempts to balance: it searches for a
   suitable remote core ``c_k`` with ``s_k / s_global < T_s``
   (``T_s = 0.9``, rejecting measurement noise) that has not recently
   been involved in a migration (at least two balance intervals), and
   pulls from it the thread that has migrated the least ("to avoid
   creating 'hot-potato' tasks"), using forced-affinity migration so
   the kernel balancer leaves the thread where it was put.

Initial placement is the artifact's too: after a startup delay (the
real tool polls ``/proc`` for the child's thread PIDs), threads are
pinned round-robin across the requested cores, "ensuring maximum
exploitation of hardware parallelism independent of the system
architecture".

Scheduling domains gate migrations: by default NUMA-level migrations
are blocked ("on NUMA systems we prevent inter-NUMA-domain
migration") and other levels are allowed; per-level extra block
multipliers let cache-sharing cores trade threads more often, as
Section 5.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.speed import SpeedEstimator
from repro.sched.task import TASK_FINISHED, TASK_RUNNABLE, TASK_RUNNING, TASK_SLEEPING, Task
from repro.topology.machine import DomainLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.spmd import SpmdApp
    from repro.system import System

__all__ = ["SpeedBalancerConfig", "SpeedBalancer"]


def _default_level_enabled() -> dict[DomainLevel, bool]:
    return {
        DomainLevel.SMT: True,
        DomainLevel.CACHE: True,
        DomainLevel.SOCKET: True,
        DomainLevel.MACHINE: True,  # cross-socket on UMA is allowed
        DomainLevel.NUMA: False,  # "we ... blocked NUMA migrations"
    }


def _default_level_block() -> dict[DomainLevel, float]:
    # multiplier on the two-interval post-migration block; 0.5 would let
    # cache-sharing cores migrate twice as often as socket-crossing ones
    return {
        DomainLevel.SMT: 1.0,
        DomainLevel.CACHE: 1.0,
        DomainLevel.SOCKET: 1.0,
        DomainLevel.MACHINE: 1.0,
        DomainLevel.NUMA: 1.0,
    }


@dataclass
class SpeedBalancerConfig:
    """All tunables of the speed balancer (paper defaults).

    Attributes
    ----------
    interval_us:
        Balance interval B.  "For all of our experiments we have used a
        fixed balance interval of 100 ms."  Figure 2 sweeps this.
    speed_threshold:
        T_s: pull from core k only when ``s_k / s_global < T_s``.
        "In our experiments we used T_s = 0.9."
    jitter:
        Random increase of up to one interval per wake-up; disabling
        it is an ablation (cycles may form).
    post_migration_block_intervals:
        Cores involved in a migration are not re-involved for this many
        intervals ("at least two balance intervals, sufficient to
        ensure that the threads on both cores have run for a full
        balance interval and the core speed values are not stale").
    startup_delay_us:
        Delay before the initial round-robin pinning (the artifact
        polls /proc "due to delays in updating the system logs").
    noise_sigma:
        taskstats measurement noise (relative), exercised with T_s.
    victim_policy:
        "least-migrated" (paper), or "random"/"most-migrated" for the
        hot-potato ablation.
    initial_pinning:
        Round-robin pin threads at startup (the artifact's behaviour).
        When False, threads stay where the kernel placed them and only
        pull-migrations reposition them.
    weight_speed_by_clock:
        Section 5.1: "The preceding argument ... can be easily extended
        to heterogeneous systems where cores have different performance
        by weighting the number of threads per core with the relative
        core speed."  When True (default) a thread's measured CPU share
        is multiplied by its core's clock factor, so a dedicated slow
        core reads as slow.  A no-op on homogeneous machines.
    numa_aware_pinning:
        On NUMA machines, distribute threads across nodes as evenly as
        possible before round-robining within nodes.  With NUMA
        migrations blocked, a node-oblivious round robin would strand
        all excess threads on node 0 forever; this realizes the
        artifact's goal that "the initial round-robin distribution
        ensures maximum exploitation of hardware parallelism
        independent of the system architecture".
    smt_weighting:
        The paper's stated future work: "weight the speed of a task
        according to the state of the other hardware context, because a
        task running on a 'core' where both hardware contexts are
        utilized will run slower than when running on a core by
        itself."  When enabled, a core whose SMT sibling is busy
        publishes its speed derated by the machine's SMT factor.
        Off by default (matching the artifact the paper evaluated).
    adaptive_interval:
        Section 5.1 suggests "increasing heuristics to dynamically
        adjust the balancing interval".  When enabled, a balancer that
        finds nothing to do for several consecutive wake-ups doubles
        its interval (up to ``adaptive_max_factor`` times the base);
        any migration involving its core resets it.  Off by default.
    """

    interval_us: int = 100_000
    speed_threshold: float = 0.9
    jitter: bool = True
    post_migration_block_intervals: float = 2.0
    startup_delay_us: int = 2_000
    noise_sigma: float = 0.01
    victim_policy: str = "least-migrated"
    initial_pinning: bool = True
    weight_speed_by_clock: bool = True
    numa_aware_pinning: bool = True
    smt_weighting: bool = False
    adaptive_interval: bool = False
    adaptive_idle_wakeups: int = 3
    adaptive_max_factor: int = 8
    #: refuse pulls that would strand the source core's capacity
    #: (see SpeedBalancer._pull_would_strand)
    min_gain_guard: bool = True
    level_enabled: dict[DomainLevel, bool] = field(default_factory=_default_level_enabled)
    level_block_multiplier: dict[DomainLevel, float] = field(
        default_factory=_default_level_block
    )


class SpeedBalancer:
    """User-level, application-scoped speed balancing.

    One instance manages one parallel application's threads on a set of
    user-requested cores, exactly like running
    ``speedbalancer <app>`` under a ``taskset``.  Multiple instances
    (one per application) can coexist, and the kernel balancer keeps
    managing every *other* task in the system: pinned threads are
    invisible to it, "allow[ing] us to apply speed balancing to a
    particular parallel application without preventing Linux from load
    balancing any other unrelated tasks".
    """

    def __init__(
        self,
        app: "SpmdApp",
        cores: Optional[Sequence[int]] = None,
        config: Optional[SpeedBalancerConfig] = None,
    ):
        self.app = app
        self.config = config or SpeedBalancerConfig()
        self.requested_cores: Optional[list[int]] = (
            sorted(cores) if cores is not None else None
        )
        self.system: Optional["System"] = None
        self.estimator: Optional[SpeedEstimator] = None
        # shared (unsynchronized) state the distributed balancers publish
        self.core_speed: dict[int, float] = {}
        self.last_migration_at: dict[int, int] = {}
        self._last_wake: dict[int, int] = {}
        self._idle_wakeups: dict[int, int] = {}
        self._interval_factor: dict[int, int] = {}
        self.stats_pulls = 0
        self.stats_wakeups = 0
        #: optional trace of (time, core, local_speed, global_speed)
        self.speed_trace: list[tuple[int, int, float, float]] = []
        self.trace_speeds = False
        # -- O(residents) monitoring state (built in attach) -----------
        #: tid -> position in app.tasks, the sampling order the shared
        #: estimator noise stream depends on
        self._task_order: dict[int, int] = {}
        self._alive_count: int = 0

    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        self.system = system
        self.estimator = SpeedEstimator(system, noise_sigma=self.config.noise_sigma)
        self._task_order = {t.tid: i for i, t in enumerate(self.app.tasks)}
        self._alive_count = 0
        for t in self.app.tasks:
            if t.state is not TASK_FINISHED:
                self._alive_count += 1
                system.on_exit(t, self._note_task_exit)
        if self.requested_cores is None:
            self.requested_cores = list(range(len(system.cores)))
        bad = [c for c in self.requested_cores if not 0 <= c < len(system.cores)]
        if bad:
            raise ValueError(
                f"requested cores {bad} outside machine "
                f"{system.machine.name!r} (cores 0..{len(system.cores) - 1})"
            )
        for cid in self.requested_cores:
            self.last_migration_at[cid] = -(10**12)
            self.core_speed[cid] = 1.0
        system.engine.schedule(
            self.config.startup_delay_us, self._initial_pinning, "speed.startup"
        )
        for cid in self.requested_cores:
            delay = self.config.startup_delay_us + self.config.interval_us
            delay += self._jitter(cid)
            self._last_wake[cid] = self.config.startup_delay_us
            system.engine.schedule(
                delay, lambda c=cid: self._balancer_wake(c), f"speed.bal.{cid}"
            )

    # ------------------------------------------------------------------
    def _jitter(self, cid: int) -> int:
        if not self.config.jitter:
            return 0
        assert self.system is not None
        return self.system.rng.jitter_us(f"speed.jitter.{cid}", self.config.interval_us)

    def _pinning_targets(self, n_threads: int) -> list[int]:
        """Destination core for each thread of the initial pinning.

        Plain round robin over the requested cores on UMA.  On NUMA
        machines (with NUMA-aware pinning enabled) threads are dealt to
        nodes proportionally to each node's core count -- including the
        oversubscription surplus -- because blocked NUMA migrations
        could never repair a node-level imbalance afterwards.
        """
        assert self.system is not None and self.requested_cores is not None
        cores = self.requested_cores
        if not (self.system.machine.numa and self.config.numa_aware_pinning):
            return [cores[i % len(cores)] for i in range(n_threads)]
        by_node: dict[int, list[int]] = {}
        for cid in cores:
            by_node.setdefault(self.system.machine.numa_node_of(cid), []).append(cid)
        node_count = dict.fromkeys(by_node, 0)
        core_count = dict.fromkeys(cores, 0)
        targets: list[int] = []
        for _ in range(n_threads):
            # least-filled node relative to its size, then its least-
            # filled core: any prefix of the assignment stays balanced
            node = min(
                by_node, key=lambda nd: (node_count[nd] / len(by_node[nd]), nd)
            )
            cid = min(by_node[node], key=lambda c: (core_count[c], c))
            node_count[node] += 1
            core_count[cid] += 1
            targets.append(cid)
        return targets

    def _initial_pinning(self) -> None:
        """Round-robin pin the application's threads (startup step).

        Uses forced migration (``sched_setaffinity``) and pins, so the
        kernel load balancer will not undo the distribution.
        """
        assert self.system is not None and self.requested_cores is not None
        if not self.config.initial_pinning:
            return
        targets = self._pinning_targets(len(self.app.tasks))
        for i, task in enumerate(self.app.tasks):
            if task.state is TASK_FINISHED:
                continue
            dst = targets[i]
            if task.cur_core == dst:
                task.pin(frozenset({dst}))
                continue
            if task.state is TASK_SLEEPING:
                task.pin(frozenset({dst}))
                task.last_core = dst  # wakes on its assigned core
                self.system.note_residency(task)
                continue
            self.system.migrate(task, dst, forced=True, pin=True, reason="speed.initial")

    # ------------------------------------------------------------------
    # the per-core balancer body (Section 5.1 steps 1-4)
    # ------------------------------------------------------------------
    def _balancer_wake(self, cid: int) -> None:
        assert self.system is not None and self.estimator is not None
        now = self.system.engine.now
        self.stats_wakeups += 1
        self._last_wake[cid] = now

        if not self._app_alive():
            return  # application finished; balancer thread exits

        # step 1+2: local thread speeds -> local core speed
        local_threads = self._monitored_on(cid)
        clock = 1.0
        if self.config.weight_speed_by_clock:
            clock = self.system.machine.cores[cid].clock_factor
        if self.config.smt_weighting:
            # future-work extension: a context whose SMT sibling is
            # busy is effectively slower
            sib = self.system.cores[cid].sibling()
            if sib is not None and sib.current is not None:
                clock *= self.system.machine.smt_derate
        speeds = []
        for t in local_threads:
            s = self.estimator.sample(t)
            if s is not None:
                speeds.append(s.speed * clock)
        if speeds:
            s_j = sum(speeds) / len(speeds)
        else:
            # no monitored thread on this core: it offers full speed
            s_j = clock
        self.core_speed[cid] = s_j

        # step 3: global core speed from the published values
        published = [self.core_speed[c] for c in self.requested_cores or []]
        s_global = sum(published) / len(published) if published else 1.0
        if self.trace_speeds:
            self.speed_trace.append((now, cid, s_j, s_global))

        # step 4: pull if the local core is faster than the global mean
        pulls_before = self.stats_pulls
        if s_j > s_global:
            self._try_pull(cid, s_global, now)

        interval = self.config.interval_us
        if self.config.adaptive_interval:
            interval = self._adapt_interval(cid, pulled=self.stats_pulls > pulls_before, now=now)
        self.system.engine.schedule(
            interval + self._jitter(cid),
            lambda: self._balancer_wake(cid),
            f"speed.bal.{cid}",
        )

    def _adapt_interval(self, cid: int, pulled: bool, now: int) -> int:
        """Back off the wake-up rate on cores with nothing to balance.

        After ``adaptive_idle_wakeups`` consecutive uneventful wake-ups
        the interval doubles (capped at ``adaptive_max_factor`` x the
        base); any migration involving the local core resets it.
        """
        cfg = self.config
        recently_involved = (
            now - self.last_migration_at.get(cid, -(10**12))
            < 2 * cfg.interval_us
        )
        if pulled or recently_involved:
            self._idle_wakeups[cid] = 0
            self._interval_factor[cid] = 1
        else:
            self._idle_wakeups[cid] = self._idle_wakeups.get(cid, 0) + 1
            if self._idle_wakeups[cid] >= cfg.adaptive_idle_wakeups:
                self._interval_factor[cid] = min(
                    cfg.adaptive_max_factor,
                    self._interval_factor.get(cid, 1) * 2,
                )
                self._idle_wakeups[cid] = 0
        return cfg.interval_us * self._interval_factor.get(cid, 1)

    def _try_pull(self, dst: int, s_global: float, now: int) -> None:
        assert self.system is not None
        cfg = self.config
        block = cfg.post_migration_block_intervals * cfg.interval_us
        if now - self.last_migration_at.get(dst, -(10**12)) < block * self._block_mult(dst, dst):
            return
        candidates: list[tuple[int, float, int]] = []
        for k in self.requested_cores or []:
            if k == dst:
                continue
            s_k = self.core_speed[k]
            if s_k / s_global >= cfg.speed_threshold:
                continue  # not sufficiently slow: measurement noise guard
            level = self.system.machine.domain_level_between(dst, k)
            if level is None or not cfg.level_enabled.get(level, True):
                continue
            if now - self.last_migration_at.get(k, -(10**12)) < block * self._block_mult(dst, k):
                continue
            candidates.append((self.last_migration_at.get(k, -(10**12)), s_k, k))
        if not candidates:
            return
        # All candidates are genuinely slow (below T_s); prefer the one
        # least recently involved in a migration so rotations cover
        # every slow queue ("distribute migrations across queues more
        # uniformly", Section 5.1) -- ties broken by measured speed.
        candidates.sort()
        for _, s_k, src in candidates:
            if cfg.min_gain_guard and self._pull_would_strand(src, dst):
                continue
            victim = self._pick_victim(src, dst)
            if victim is None:
                continue
            if self.system.migrate(
                victim, dst, forced=True, pin=True, reason="speed.pull"
            ):
                self.stats_pulls += 1
                self.last_migration_at[src] = now
                self.last_migration_at[dst] = now
            return

    def _pull_would_strand(self, src: int, dst: int) -> bool:
        """Would this pull idle the source core while crowding the dst?

        Pull-only balancing has exactly one pathological move: taking a
        core's *last* runnable task (nothing else keeps that core busy)
        onto a destination that already hosts monitored threads.  That
        strands the source's capacity — the now-empty core is slower
        than average (e.g. thermally throttled), so it will never pull
        work back — and is strictly worse than doing nothing.  Every
        rotation with a future (source keeps co-runners, or keeps other
        threads of the app, or the destination is empty) is allowed.
        """
        assert self.system is not None
        dst_residents = [
            t
            for t in self._monitored_on(dst)
            if t.state in (TASK_RUNNABLE, TASK_RUNNING)
        ]
        if not dst_residents:
            return False  # moving onto a free core is always fine
        src_monitored = [
            t
            for t in self._monitored_on(src)
            if t.state in (TASK_RUNNABLE, TASK_RUNNING)
        ]
        if len(src_monitored) > 1:
            return False  # the source keeps rotating its remaining threads
        # would the source core be left with anything runnable at all?
        src_core = self.system.cores[src]
        return src_core.nr_running <= len(src_monitored)

    def _block_mult(self, a: int, b: int) -> float:
        if a == b:
            return 1.0
        assert self.system is not None
        level = self.system.machine.domain_level_between(a, b)
        if level is None:
            return 1.0
        return self.config.level_block_multiplier.get(level, 1.0)

    def _pick_victim(self, src: int, dst: int) -> Optional[Task]:
        """Choose which thread to pull off the slow core."""
        assert self.system is not None
        pool = [
            t
            for t in self._monitored_on(src)
            if t.state in (TASK_RUNNABLE, TASK_RUNNING)
        ]
        if not pool:
            return None
        policy = self.config.victim_policy
        if policy == "least-migrated":
            pool.sort(key=lambda t: (t.migrations, t.tid))
            return pool[0]
        if policy == "most-migrated":
            pool.sort(key=lambda t: (-t.migrations, t.tid))
            return pool[0]
        if policy == "random":
            return self.system.rng.choice("speed.victim", pool)
        raise ValueError(f"unknown victim policy {policy!r}")

    # ------------------------------------------------------------------
    def _monitored_on(self, cid: int) -> list[Task]:
        """The application's threads currently hosted by core ``cid``.

        Sleeping threads whose last core was ``cid`` are counted too --
        taskstats reports them, and their near-zero interval speed is
        what makes SPEED "slightly decrease ... performance when tasks
        sleep" (Section 6.2), an emergent behaviour we preserve.

        Served from the system's per-core residency index
        (:meth:`~repro.system.System.residents_on`) in O(residents)
        instead of scanning ``app.tasks`` per wake per core.  The
        result is sorted back into ``app.tasks`` order: the speed
        estimator draws measurement noise from one shared rng stream,
        so the *sampling order* is part of the reproducible behaviour.
        """
        assert self.system is not None
        order = self._task_order
        out = [
            (order[tid], t)
            for tid, t in self.system.residents_on(cid).items()
            if tid in order
        ]
        out.sort()
        return [t for _, t in out]

    def _note_task_exit(self, task: Task) -> None:
        self._alive_count -= 1

    def _app_alive(self) -> bool:
        return self._alive_count > 0

    def __repr__(self) -> str:
        return (
            f"<SpeedBalancer app={self.app.name} pulls={self.stats_pulls}"
            f" wakeups={self.stats_wakeups}>"
        )

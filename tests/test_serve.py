"""Tests for the streaming ingest service (repro.serve).

Covers the wire protocol, shard backpressure/shed accounting, the
checkpoint → resume continuity contract, graceful drain, and the
end-to-end acceptance property: estimates streamed through the real TCP
service agree with batch ``TagBreathe.process()`` to within 0.1 bpm.
"""

import asyncio
import warnings

import numpy as np
import pytest

from repro import Scenario, TagBreathe, run_scenario
from repro.body import MetronomeBreathing, Subject
from repro.errors import (
    CheckpointCorruptError,
    ConfigError,
    DegradedEstimateWarning,
    ProtocolError,
    ServeError,
    ServeTimeoutError,
)
from repro.serve import (
    BreathServer,
    FrameDecoder,
    IngestClient,
    SessionConfig,
    SessionShard,
    UserSession,
    encode_column_frame,
    encode_frame,
    load_checkpoint,
    previous_path,
    save_checkpoint,
    watch_estimates,
)
from repro.reader.batch import ReportBatch
from repro.serve.checkpoint import CHECKPOINT_MAGIC
from repro.serve.protocol import MAX_FRAME_BYTES
from repro.sim.trace_io import load_trace_csv, save_trace_csv

from .wire_helpers import raw_exchange, report_to_wire


def run(coro):
    """Run one coroutine to completion (the suite has no asyncio plugin)."""
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _quiet_degraded():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstimateWarning)
        yield


def one_row(report):
    """A single-report column batch, the smallest unit a shard queues."""
    return ReportBatch.from_reports([report])


def send_frame(client, reports, first_seq):
    """Write ``reports`` as one column frame with consecutive seqs."""
    client.write_frame(encode_column_frame(
        ReportBatch.from_reports(reports),
        np.arange(first_seq, first_seq + len(reports), dtype=np.uint64)))


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
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"type": "hello", "role": "ingest", "n": 3, "x": 1.5}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_decoder_handles_byte_at_a_time(self):
        frame = encode_frame({"type": "bye"})
        decoder = FrameDecoder()
        messages = []
        for i in range(len(frame)):
            messages.extend(decoder.feed(frame[i:i + 1]))
        assert messages == [{"type": "bye"}]
        assert decoder.pending_bytes() == 0

    def test_decoder_handles_many_frames_per_feed(self):
        data = b"".join(encode_frame({"type": "ping", "i": i})
                        for i in range(5))
        decoder = FrameDecoder()
        messages = decoder.feed(data)
        assert [m["i"] for m in messages] == [0, 1, 2, 3, 4]

    def test_oversized_length_prefix_rejected(self):
        import struct
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x")

    def test_non_object_payload_rejected(self):
        import struct
        payload = b"[1,2,3]"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack("!I", len(payload)) + payload)

    def test_json_report_message_refused(self):
        frame = encode_frame(report_to_wire(make_capture(1, 2.0).reports[0]))
        with pytest.raises(ProtocolError, match="column frame"):
            FrameDecoder().feed(frame)


# ----------------------------------------------------------------------
# Streaming-state snapshot on the engine (serves the checkpoint layer)
# ----------------------------------------------------------------------
class TestEngineStreamingState:
    def test_buffered_reports_roundtrip(self):
        result = make_capture(users=2, duration_s=30.0)
        engine = TagBreathe(user_ids={1, 2})
        engine.feed_batch(result.reports)
        snapshot = engine.buffered_reports()
        assert len(snapshot) == len(result.reports)
        restored = TagBreathe(user_ids={1, 2})
        restored.restore_streaming(snapshot,
                                   {"late": 3, "duplicate": 1})
        assert restored.feed_drop_counts["late"] == 3
        a = engine.estimate_user(1, window_s=30.0)
        b = restored.estimate_user(1, window_s=30.0)
        assert a.rate_bpm == pytest.approx(b.rate_bpm, abs=1e-12)

    def test_buffered_reports_per_user_filter(self):
        result = make_capture(users=2, duration_s=10.0)
        engine = TagBreathe(user_ids={1, 2})
        engine.feed_batch(result.reports)
        only_one = engine.buffered_reports(1)
        assert only_one and all(r.user_id == 1 for r in only_one)

    def test_reset_streaming_zeroes_drop_counts(self):
        engine = TagBreathe()
        engine.restore_streaming([], {"late": 5})
        assert engine.feed_drop_counts["late"] == 5
        engine.reset_streaming()
        assert engine.dropped_report_count == 0


# ----------------------------------------------------------------------
# Backpressure and shedding
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_shed_oldest_first(self):
        result = make_capture(users=1, duration_s=10.0)
        reports = result.reports[:32]
        config = SessionConfig(queue_capacity=8)
        published = []

        async def scenario():
            shard = SessionShard(0, config, published.append)
            for report in reports:
                shard.submit_batch(one_row(report))
            assert shard.backlog == 8
            return shard

        shard = run(scenario())
        assert shard.shed_count == len(reports) - 8
        assert shard.frames_in == len(reports)

    def test_shed_keeps_newest_reports(self):
        result = make_capture(users=1, duration_s=10.0)
        reports = result.reports[:20]
        config = SessionConfig(queue_capacity=4)

        async def scenario():
            shard = SessionShard(0, config, lambda m: None)
            for report in reports:
                shard.submit_batch(one_row(report))
            kept = []
            while shard._queue.qsize():
                kept.extend(shard._queue.get_nowait().to_reports())
            return kept

        kept = run(scenario())
        assert kept == reports[-4:]

    def test_watermarks(self):
        config = SessionConfig(queue_capacity=100,
                               high_watermark=10, low_watermark=2)
        assert config.high == 10 and config.low == 2
        result = make_capture(users=1, duration_s=10.0)

        async def scenario():
            shard = SessionShard(0, config, lambda m: None)
            for report in result.reports[:10]:
                shard.submit_batch(one_row(report))
            assert shard.over_high
            shard.start()
            await asyncio.wait_for(shard.wait_below_low(), timeout=5.0)
            assert shard.backlog <= config.high
            await shard.drain()
            await shard.stop()
            return shard.sessions

        sessions = run(scenario())
        assert 1 in sessions and sessions[1].reports_in == 10

    def test_default_watermarks_derive_from_capacity(self):
        config = SessionConfig(queue_capacity=100)
        assert config.high == 75
        assert config.low == 25

    def test_shed_counted_in_obs_metrics(self):
        from repro import obs
        result = make_capture(users=1, duration_s=5.0)
        config = SessionConfig(queue_capacity=2)

        async def scenario():
            shard = SessionShard(0, config, lambda m: None)
            for report in result.reports[:10]:
                shard.submit_batch(one_row(report))

        with obs.capture() as (_tracer, registry):
            run(scenario())
            values = registry.values("repro_serve_shed_total")
        assert sum(values.values()) == 8


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class TestUserSession:
    def test_cadence_and_warmup(self):
        result = make_capture(users=1, duration_s=40.0)
        config = SessionConfig(window_s=25.0, estimate_interval_s=5.0,
                               warmup_s=25.0)
        session = UserSession(1, config)
        estimates = []
        for i in range(len(result.reports)):
            session.ingest_batch(result.reports[i:i + 1])
            message = session.maybe_estimate()
            if message:
                estimates.append(message)
        # 40 s of stream, first estimate ~25 s, then every 5 s: 25/30/35/40
        assert 3 <= len(estimates) <= 5
        assert estimates[0]["t"] >= 25.0
        assert all(m["type"] == "estimate" for m in estimates)
        assert all(m["user_id"] == 1 for m in estimates)
        assert "drop_counts" in estimates[0]
        # The estimator lattice and motion gate are wire-visible.
        assert all(m["estimator"] in ("zero_crossing", "spectral", "rss")
                   for m in estimates)
        assert all(m["motion_gated"] is False for m in estimates)

    def test_signal_embedding(self):
        result = make_capture(users=1, duration_s=30.0)
        session = UserSession(1, SessionConfig(include_signal=True,
                                               signal_points=40))
        session.ingest_batch(result.reports)
        message = session.estimate_now()
        assert message is not None
        assert len(message["signal"]["values"]) >= 20
        assert len(message["signal"]["times"]) == len(message["signal"]["values"])

    def test_insufficient_data_returns_none(self):
        session = UserSession(1, SessionConfig())
        assert session.estimate_now() is None

    @pytest.mark.parametrize("window_s", [0.0, -5.0, float("nan")])
    def test_config_rejects_bad_window(self, window_s):
        # A bad window used to surface only at the first due tick, as a
        # StreamError/IndexError that ended the shard task.
        with pytest.raises(ConfigError):
            SessionConfig(window_s=window_s)

    def test_config_accepts_default_and_positive_window(self):
        assert SessionConfig().window_s is None
        assert SessionConfig(window_s=12.5).window_s == 12.5


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        result = make_capture(users=2, duration_s=20.0)
        session = UserSession(1, SessionConfig())
        session.ingest_batch(result.reports)
        path = tmp_path / "serve.ckpt"
        n = save_checkpoint(path, [session.state()], {"frames_total": 99})
        assert n == len(session.engine.buffered_reports(1))
        saved = load_checkpoint(path)
        assert saved["counters"]["frames_total"] == 99
        [state] = saved["sessions"]
        assert state["user_id"] == 1
        assert state["batch"].to_reports() == session.engine.buffered_reports(1)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json")
        with pytest.raises(ServeError):
            load_checkpoint(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ServeError):
            load_checkpoint(path)
        with pytest.raises(ServeError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_load_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + bytes([99]) + b"\x00" * 8)
        with pytest.raises(ServeError, match="newer") as info:
            load_checkpoint(path)
        assert not isinstance(info.value, CheckpointCorruptError)

    def test_restore_into_session_is_lossless(self):
        result = make_capture(users=1, duration_s=30.0)
        config = SessionConfig(window_s=30.0)
        original = UserSession(1, config)
        original.ingest_batch(result.reports)
        state = original.state()
        clone = UserSession(1, config)
        clone.restore(state)
        a = original.estimate_now()
        b = clone.estimate_now()
        assert a["rate_bpm"] == pytest.approx(b["rate_bpm"], abs=1e-12)
        assert clone.reports_in == original.reports_in


class TestCheckpointHardening:
    """The crash-safety contract: rotation, fallback, typed corruption."""

    def _save(self, path, marker):
        result = make_capture(users=1, duration_s=15.0)
        session = UserSession(1, SessionConfig())
        session.ingest_batch(result.reports)
        return save_checkpoint(path, [session.state()],
                               {"frames_total": marker})

    def test_rotation_keeps_previous_generation(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        self._save(path, marker=2)
        assert previous_path(path).exists()
        assert load_checkpoint(path)["counters"]["frames_total"] == 2
        prev = load_checkpoint(previous_path(path), allow_fallback=False)
        assert prev["counters"]["frames_total"] == 1

    def test_corrupt_live_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        self._save(path, marker=2)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        saved = load_checkpoint(path)
        assert saved["fallback"] is True
        assert saved["counters"]["frames_total"] == 1
        [state] = saved["sessions"]
        assert len(state["batch"])  # the previous generation's data is whole

    def test_corrupt_without_previous_is_typed_error(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        path.write_text("{torn")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
        # CheckpointCorruptError is a ServeError: old handlers still work.
        with pytest.raises(ServeError):
            load_checkpoint(path)

    def test_fallback_can_be_disabled(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        self._save(path, marker=2)
        path.write_text("{torn")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, allow_fallback=False)

    def test_server_boots_from_fallback_checkpoint(self, tmp_path):
        """A torn live checkpoint must not keep the server down."""
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        self._save(path, marker=2)
        path.write_bytes(b"\x00" * 64)

        async def scenario():
            server = BreathServer(port=0, checkpoint_path=str(path),
                                  checkpoint_interval_s=0)
            await server.start()
            sessions = server.session_count()
            await server.drain()
            return sessions

        assert run(scenario()) == 1

    @pytest.mark.parametrize("damage", ["newer_version", "unreadable"])
    def test_server_refuses_a_checkpoint_it_cannot_read(self, tmp_path,
                                                        damage):
        """Only a missing checkpoint may cold-start: a newer version or
        an unreadable file stops start() before anything overwrites it,
        and neither falls back to the previous generation."""
        path = tmp_path / "serve.ckpt"
        self._save(path, marker=1)
        self._save(path, marker=2)
        if damage == "newer_version":
            data = bytearray(path.read_bytes())
            data[len(CHECKPOINT_MAGIC)] = 99
            path.write_bytes(bytes(data))
        else:
            path.unlink()
            path.mkdir()  # reading it is an OSError, as EPERM would be
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                  if p.is_file()}
        with pytest.raises(ServeError) as info:
            load_checkpoint(path)
        assert not isinstance(info.value, CheckpointCorruptError)

        async def scenario():
            server = BreathServer(port=0, checkpoint_path=str(path),
                                  checkpoint_interval_s=0.05)
            with pytest.raises(ServeError):
                await server.start()
            await asyncio.sleep(0.3)

        run(scenario())
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                if p.is_file()} == before


class TestRestoreDropAccounting:
    def test_replay_drops_kept_out_of_live_counters(self):
        """last_restore_drop_counts: restore-time drops are a property of
        the snapshot, not of live traffic."""
        result = make_capture(users=1, duration_s=20.0)
        original = UserSession(1, SessionConfig(window_s=20.0))
        original.ingest_batch(result.reports)
        state = original.state()
        # A torn snapshot: one report duplicated (same stream, same
        # timestamp) — the replay must drop exactly the duplicate.
        reports = state["batch"].to_reports()
        reports.append(reports[-1])
        state["batch"] = ReportBatch.from_reports(reports)
        clone = UserSession(1, SessionConfig(window_s=20.0))
        clone.restore(state)
        replay_drops = clone.engine.last_restore_drop_counts
        assert sum(replay_drops.values()) == 1
        # ...and the restored *live* counters still equal the
        # checkpointed ones: nothing leaked across the boundary.
        assert clone.engine.feed_drop_counts == state["drop_counts"]

    def test_clean_restore_reports_zero_replay_drops(self):
        result = make_capture(users=1, duration_s=20.0)
        original = UserSession(1, SessionConfig(window_s=20.0))
        original.ingest_batch(result.reports)
        state = original.state()
        clone = UserSession(1, SessionConfig(window_s=20.0))
        clone.restore(state)
        assert sum(clone.engine.last_restore_drop_counts.values()) == 0


# ----------------------------------------------------------------------
# The server, end to end over real TCP
# ----------------------------------------------------------------------
class TestServerEndToEnd:
    def test_replay_estimates_match_batch(self):
        """Acceptance: 5 users / 60 s streamed vs batch, within 0.1 bpm."""
        result = make_capture(users=5, duration_s=60.0, seed=11)
        reports = result.reports

        async def scenario():
            server = BreathServer(port=0, n_shards=3, config=SessionConfig(
                window_s=60.0, estimate_interval_s=10.0, warmup_s=30.0))
            await server.start()
            collected = []

            async def consume():
                async for message in watch_estimates(
                        "127.0.0.1", server.port):
                    collected.append(message)

            consumer = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            stats = await client.replay(reports, speed=0)
            await client.close()
            await server.drain()
            await consumer
            return server, stats, collected

        server, stats, collected = run(scenario())
        assert stats.sent == len(reports)
        assert stats.acked == len(reports)
        assert server.counters["reports_total"] == len(reports)

        batch = TagBreathe(user_ids=set(range(1, 6))).process(reports)
        finals = {m["user_id"]: m for m in collected if m.get("final")}
        assert set(finals) == set(batch)
        for uid, estimate in batch.items():
            assert finals[uid]["rate_bpm"] == pytest.approx(
                estimate.rate_bpm, abs=0.1)
        # Interim estimates were streamed too, not just finals.
        assert len(collected) > len(finals)

    def test_kill_and_checkpoint_resume_continuity(self, tmp_path):
        """A restarted server picks up mid-breath from its checkpoint."""
        result = make_capture(users=2, duration_s=40.0)
        reports = result.reports
        half = len(reports) // 2
        path = str(tmp_path / "serve.ckpt")

        async def run_server(batch, expect_resumed):
            server = BreathServer(
                port=0, n_shards=2, checkpoint_path=path,
                checkpoint_interval_s=0,  # checkpoint on drain only
                config=SessionConfig(window_s=40.0))
            await server.start()
            assert (server.counters["resumed_reports"] > 0) == expect_resumed
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(batch, speed=0)
            await client.close()
            finals = {s.user_id: s.estimate_now() for s in server.sessions()}
            await server.drain()  # kill point: writes the checkpoint
            return finals

        run(run_server(reports[:half], expect_resumed=False))
        finals = run(run_server(reports[half:], expect_resumed=True))

        uninterrupted = TagBreathe(user_ids={1, 2})
        uninterrupted.feed_batch(ReportBatch.from_reports(reports))
        for uid in (1, 2):
            expected = uninterrupted.estimate_user(uid, window_s=40.0)
            assert finals[uid]["rate_bpm"] == pytest.approx(
                expected.rate_bpm, abs=0.1)

    def test_graceful_drain_notifies_watchers(self):
        result = make_capture(users=1, duration_s=30.0)

        async def scenario():
            server = BreathServer(port=0, config=SessionConfig(
                window_s=30.0, warmup_s=35.0))  # warmup > capture: no ticks
            await server.start()
            seen = []

            async def consume():
                async for message in watch_estimates(
                        "127.0.0.1", server.port, user_id=1):
                    seen.append(message)

            consumer = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(result.reports, speed=0)
            await client.close()
            await server.drain()
            # The iterator must terminate on its own (draining message).
            await asyncio.wait_for(consumer, timeout=5.0)
            return seen

        seen = run(scenario())
        # No cadence ticks fired, so everything seen is the drain farewell.
        assert len(seen) == 1
        assert seen[0]["final"] is True

    def test_protocol_error_answered_not_fatal(self):
        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(encode_frame({"type": "report"}))  # no hello
            await writer.drain()
            decoder = FrameDecoder()
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
            messages = decoder.feed(data)
            writer.close()
            await server.drain()
            return server, messages

        server, messages = run(scenario())
        assert messages and messages[0]["type"] == "error"
        assert server.counters["protocol_errors_total"] == 1

    def test_json_report_frame_answered_with_error_and_closed(self):
        report = make_capture(1, 2.0).reports[0]

        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            result = await raw_exchange(
                server.port, {"type": "hello", "role": "ingest"},
                report_to_wire(report))
            await server.drain()
            return server, result

        server, (welcome, replies, closed) = run(scenario())
        assert welcome["type"] == "welcome"
        assert [m["type"] for m in replies] == ["error"]
        assert "column frame" in replies[0]["message"]
        assert closed
        assert server.counters["reports_total"] == 0
        assert server.counters["protocol_errors_total"] == 1

    def test_hello_codec_is_ignored(self):
        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            result = await raw_exchange(
                server.port,
                {"type": "hello", "role": "ingest", "codec": "msgpack"},
                {"type": "bye"})
            await server.drain()
            return result

        welcome, replies, closed = run(scenario())
        # The welcome decoded as JSON: no codec was switched on.
        assert welcome["type"] == "welcome" and "codec" not in welcome
        assert welcome["version"] == 5
        assert replies == [] and closed

    def test_reconnects_counted(self):
        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            for _ in range(3):
                client = IngestClient("127.0.0.1", server.port,
                                      client_id="flaky-reader")
                await client.connect()
                await client.close()
            await server.drain()
            return server.counters

        counters = run(scenario())
        assert counters["connections_total"] == 3
        assert counters["reconnects_total"] == 2

    def test_serve_metrics_in_obs_registry(self):
        from repro import obs
        result = make_capture(users=1, duration_s=10.0)

        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(result.reports, speed=0)
            await client.close()
            await server.drain()

        with obs.capture() as (_tracer, registry):
            run(scenario())
            frames = registry.values("repro_serve_frames_total")
            conns = registry.values("repro_serve_connections_total")
            active = registry.values("repro_serve_active_connections")
        # One column frame per 256 reports, plus hello, flush and bye.
        assert sum(frames.values()) >= -(-len(result.reports) // 256) + 2
        assert sum(conns.values()) == 1
        assert sum(active.values()) == 0  # gauge returned to zero

    def test_flush_is_an_ingest_barrier(self):
        result = make_capture(users=1, duration_s=20.0)

        async def scenario():
            server = BreathServer(port=0, config=SessionConfig(
                window_s=20.0))
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            stats = await client.replay(result.reports, speed=0)
            # replay() ends with a flush barrier, so ingestion is done:
            sessions = server.sessions()
            await client.close()
            await server.drain()
            return stats, sessions

        stats, sessions = run(scenario())
        assert stats.acked == len(result.reports)
        assert sessions and sessions[0].reports_in == len(result.reports)


class TestDrainStuck:
    def test_stuck_handler_cancelled_and_counted(self):
        """Drain never hangs on a wedged connection: after the grace
        period the handler is cancelled and the stall is *counted*."""
        from repro import obs

        async def scenario():
            server = BreathServer(port=0)
            server.drain_grace_s = 0.05
            await server.start()
            # An ingest connection that handshakes and then goes silent:
            # its handler blocks in read() and never sees the drain.
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await server.drain()
            await client.close(polite=False)
            return server.counters

        with obs.capture() as (_tracer, registry):
            counters = run(scenario())
            stuck = registry.values("repro_serve_drain_stuck_total")
        assert counters["drain_stuck_total"] == 1
        assert sum(stuck.values()) == 1

    def test_clean_drain_counts_nothing(self):
        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.close()  # polite bye: the handler winds down
            await server.drain()
            return server.counters

        assert run(scenario())["drain_stuck_total"] == 0


class TestClientTimeouts:
    def test_connect_timeout_is_typed(self):
        """A server that accepts but never answers hello must surface a
        ServeTimeoutError, not hang the caller forever."""

        async def scenario():
            async def mute(reader, writer):
                await reader.read()  # accept, say nothing, wait for EOF
                writer.close()

            listener = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = IngestClient("127.0.0.1", port,
                                  connect_timeout_s=0.1)
            try:
                with pytest.raises(ServeTimeoutError):
                    await client.connect()
                assert not client.connected
            finally:
                listener.close()
                await listener.wait_closed()

        run(scenario())

    def test_timeout_is_a_serve_error(self):
        assert issubclass(ServeTimeoutError, ServeError)


class TestIdempotentResume:
    def test_welcome_answers_last_seq_and_filters_duplicates(self):
        result = make_capture(users=1, duration_s=10.0)
        reports = result.reports[:20]

        async def scenario():
            server = BreathServer(port=0)
            await server.start()
            first = IngestClient("127.0.0.1", server.port,
                                 client_id="reader-7")
            await first.connect()
            assert first.last_seq == 0
            send_frame(first, reports, first_seq=1)
            await first.flush()
            await first.close()

            second = IngestClient("127.0.0.1", server.port,
                                  client_id="reader-7")
            await second.connect()
            resumed_from = second.last_seq
            # A crashed reader resends a suffix it is not sure about:
            # everything at or below the watermark must be dropped.
            send_frame(second, reports[10:], first_seq=11)
            await second.flush()
            await second.close()
            counters = dict(server.counters)
            total = server.counters["reports_total"]
            await server.drain()
            return resumed_from, counters, total

        resumed_from, counters, total = run(scenario())
        assert resumed_from == len(reports)
        assert counters["seq_filtered_total"] == len(reports) - 10
        # Duplicates were filtered before ingest: no report counted twice.
        assert total == len(reports)

    def test_seq_watermark_survives_checkpoint(self, tmp_path):
        result = make_capture(users=1, duration_s=10.0)
        reports = result.reports[:10]
        path = str(tmp_path / "serve.ckpt")

        async def phase_one():
            server = BreathServer(port=0, checkpoint_path=path,
                                  checkpoint_interval_s=0)
            await server.start()
            client = IngestClient("127.0.0.1", server.port,
                                  client_id="reader-9")
            await client.connect()
            send_frame(client, reports, first_seq=1)
            await client.flush()
            await client.close()
            await server.drain()  # checkpoint carries the watermark

        async def phase_two():
            server = BreathServer(port=0, checkpoint_path=path,
                                  checkpoint_interval_s=0)
            await server.start()
            client = IngestClient("127.0.0.1", server.port,
                                  client_id="reader-9")
            await client.connect()
            seq = client.last_seq
            await client.close()
            await server.drain()
            return seq

        run(phase_one())
        assert run(phase_two()) == len(reports)


# ----------------------------------------------------------------------
# Hibernation (the cold tier, through the real server)
# ----------------------------------------------------------------------
class TestHibernation:
    def _scenario(self, reports, wide_frames=False):
        """Replay half, park everyone, replay the rest; return the books.

        With ``wide_frames`` the rest arrives as one column frame
        written straight to the socket, so each woken session is fed a
        batch larger than its staging buffer (``STAGE_ROWS``).
        """
        half = len(reports) // 2

        async def scenario():
            server = BreathServer(port=0, n_shards=2, config=SessionConfig(
                window_s=40.0, idle_after_s=30.0))
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports[:half], speed=0)
            await client.close()
            # Everyone went quiet 100 s ago (wall clock): the sweep
            # must park both sessions and free their engines.
            for session in server.sessions():
                session.last_active -= 100.0
            parked = server.hibernate_idle_now()
            mid = server.summary()
            client2 = IngestClient("127.0.0.1", server.port)
            await client2.connect()
            if wide_frames:
                client2.write_frame(encode_column_frame(
                    ReportBatch.from_reports(reports[half:])))
                await client2.flush()
            else:
                await client2.replay(reports[half:], speed=0)
            await client2.close()
            finals = {s.user_id: s.estimate_now() for s in server.sessions()}
            end = server.summary()
            await server.drain()
            return parked, mid, finals, end

        return run(scenario())

    def _assert_continuity(self, reports, parked, mid, finals, end):
        assert parked == 2
        assert mid["resident"] == 0 and mid["hibernated"] == 2
        assert mid["sessions"] == 2  # parked users still counted as owned
        assert end["resident"] == 2 and end["hibernated"] == 0
        uninterrupted = TagBreathe(user_ids={1, 2})
        uninterrupted.feed_batch(ReportBatch.from_reports(reports))
        for uid in (1, 2):
            expected = uninterrupted.estimate_user(uid, window_s=40.0)
            assert finals[uid]["rate_bpm"] == pytest.approx(
                expected.rate_bpm, abs=0.1)

    def test_idle_sweep_parks_and_next_report_wakes(self):
        reports = make_capture(users=2, duration_s=40.0).reports
        self._assert_continuity(reports, *self._scenario(reports))

    def test_wake_via_binary_column_frames(self):
        """The wake can land on wide frames fed straight to feed_batch."""
        reports = make_capture(users=2, duration_s=40.0).reports
        self._assert_continuity(
            reports, *self._scenario(reports, wide_frames=True))

    def test_hibernated_sessions_survive_checkpoint_restart(self, tmp_path):
        """Parked docs ride the checkpoint, resume cold, then wake."""
        reports = make_capture(users=2, duration_s=40.0).reports
        half = len(reports) // 2
        path = str(tmp_path / "serve.ckpt")

        def server_config():
            return dict(port=0, n_shards=2, checkpoint_path=path,
                        checkpoint_interval_s=0,
                        config=SessionConfig(window_s=40.0,
                                             idle_after_s=30.0))

        async def first_run():
            server = BreathServer(**server_config())
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports[:half], speed=0)
            await client.close()
            for session in server.sessions():
                session.last_active -= 100.0
            assert server.hibernate_idle_now() == 2
            await server.drain()  # kill point: checkpoint holds cold docs

        async def second_run():
            server = BreathServer(**server_config())
            await server.start()
            # Resumed cold: owned but no engine was materialised.
            resumed = server.summary()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports[half:], speed=0)
            await client.close()
            finals = {s.user_id: s.estimate_now() for s in server.sessions()}
            await server.drain()
            return resumed, finals

        run(first_run())
        resumed, finals = run(second_run())
        assert resumed["sessions"] == 2
        assert resumed["resident"] == 0 and resumed["hibernated"] == 2
        uninterrupted = TagBreathe(user_ids={1, 2})
        uninterrupted.feed_batch(ReportBatch.from_reports(reports))
        for uid in (1, 2):
            expected = uninterrupted.estimate_user(uid, window_s=40.0)
            assert finals[uid]["rate_bpm"] == pytest.approx(
                expected.rate_bpm, abs=0.1)

    def test_idle_sweep_loop_runs_on_its_own(self):
        """With a tiny idle_after_s the background sweep parks sessions
        without anyone calling hibernate_idle_now."""
        reports = make_capture(users=1, duration_s=20.0).reports

        async def scenario():
            server = BreathServer(port=0, config=SessionConfig(
                window_s=20.0, idle_after_s=0.1))
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports, speed=0)
            await client.close()
            for _ in range(100):  # sweep interval is idle_after_s / 2
                if server.hibernated_count():
                    break
                await asyncio.sleep(0.05)
            counts = (server.resident_count(), server.hibernated_count())
            await server.drain()
            return counts

        resident, hibernated = run(scenario())
        assert (resident, hibernated) == (0, 1)

    def test_max_resident_budget_enforced_per_shard(self):
        reports = make_capture(users=3, duration_s=10.0).reports

        async def scenario():
            server = BreathServer(port=0, n_shards=1, config=SessionConfig(
                window_s=10.0, max_resident=1))
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports, speed=0)
            await client.close()
            counts = (server.resident_count(), server.hibernated_count(),
                      server.session_count())
            await server.drain()
            return counts

        resident, hibernated, total = run(scenario())
        assert resident == 1
        assert hibernated == 2
        assert total == 3

    def test_hibernation_metrics_registered(self):
        from repro import obs
        reports = make_capture(users=1, duration_s=10.0).reports

        async def scenario():
            server = BreathServer(port=0, config=SessionConfig(
                window_s=10.0, idle_after_s=30.0))
            await server.start()
            client = IngestClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(reports, speed=0)
            await client.close()
            server.sessions()[0].last_active -= 100.0
            server.hibernate_idle_now()
            # Touching the user again wakes them through the histogram.
            server.shard_for(1).session_for(1)
            await server.drain()

        with obs.capture() as (_tracer, registry):
            run(scenario())
            parked = registry.values("repro_serve_hibernated_total")
            woken = registry.values("repro_serve_woken_total")
            latency = registry.histogram("repro_serve_wake_latency_seconds")
            observed = latency.count
        assert sum(parked.values()) == 1
        assert sum(woken.values()) == 1
        assert observed == 1  # the wake histogram saw the inflate+replay


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_parser_accepts_serve_replay_watch(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--shards", "2"])
        assert args.command == "serve" and args.shards == 2
        args = parser.parse_args(["replay", "cap.csv", "--speed", "4"])
        assert args.command == "replay" and args.speed == 4.0
        args = parser.parse_args(["watch", "3"])
        assert args.command == "watch" and args.user == 3

    def test_parser_accepts_hibernation_knobs(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0",
                                  "--max-resident-users", "5000",
                                  "--idle-after", "120"])
        assert args.max_resident_users == 5000
        assert args.idle_after == 120.0
        # Both default to off: sessions stay resident forever.
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.max_resident_users is None and args.idle_after is None

    def test_per_shard_budget_split(self):
        from repro.cli import _per_shard_budget
        assert _per_shard_budget(None, 4) is None
        assert _per_shard_budget(100, 4) == 25
        assert _per_shard_budget(10, 4) == 3  # ceil division
        assert _per_shard_budget(1, 8) == 1   # floor of one per shard

    def test_replay_against_dead_server_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        result = make_capture(users=1, duration_s=5.0)
        trace = tmp_path / "cap.csv"
        save_trace_csv(result.reports, trace)
        assert load_trace_csv(trace)  # sanity: the capture round-trips
        code = main(["replay", str(trace), "--port", "1",
                     "--speed", "0"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

"""Outside-in per-layer timing for the monitoring path.

The program carries no benchmark hooks: with ``--trace 1`` the
benchmark wraps the public entry point of each layer from outside, for
the measured window only, and attributes every wrapped call's *self*
time (its duration minus the wrapped calls nested inside it) to its
layer.  Self times never overlap, so the layers plus ``other`` (event
loop, sockets, idle) add up to the measured wall time: the waterfall
closes by construction.

Two waits are measured at the same boundaries: how long a column batch
sat in its shard queue (``SessionShard.submit_batch`` to the start of
its ingest, minus the session lookup or wake), and how long a published
estimate took to reach the watching client.  They are reported as
shares of the workload's mean end-to-end latency.

Everything is kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Set, Tuple

from repro.core.pipeline import TagBreathe
from repro.reader.batch import ReportBatch
from repro.serve.protocol import FrameDecoder
from repro.serve.session import SessionShard, UserSession
from repro.sim import engine

#: Layers in path order, outermost first.
LAYERS = ("sim", "client", "decode", "route", "lookup", "session", "feed",
          "tick", "publish", "hibernate", "process")

_clock = time.perf_counter


class Waterfall:
    """Self time, call counts and waits per layer over one window."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []
        self._stack: List[List[float]] = []
        self.window_s = 0.0
        self._started = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._ignored_decoders: Set[int] = set()
        self._reset()

    def start(self) -> None:
        """Open the measured window: wrap every layer, start counting."""
        self._reset()
        self._install()
        self._started = _clock()

    def stop(self) -> None:
        """Close the window: put every wrapped entry point back."""
        self.window_s = _clock() - self._started
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def ignore_decoder(self, decoder: FrameDecoder) -> None:
        """Leave ``decoder``'s calls out of ``decode`` (a client's own)."""
        self._ignored_decoders.add(id(decoder))

    def _reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.backlog_sum = 0
        self.queue_wait_s: List[float] = []
        self.watch_delay_s: List[float] = []
        self._enqueued: Dict[int, float] = {}
        self._published: Dict[Tuple[int, float], float] = {}
        self._lookup_s = 0.0

    # ------------------------------------------------------------------
    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its self time charged to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - t0
                stack.pop()
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
        return wrapper

    def _patch(self, owner: object, name: str, layer: str,
               make: Callable[[Callable], Callable] = None) -> None:
        original = getattr(owner, name)
        inner = make(original) if make is not None else original
        setattr(owner, name, self.timed(layer, inner))
        self._patched.append((owner, name, original))

    def _install(self) -> None:
        wf = self

        def split_eagerly(split):
            # The server iterates the split once; materialising it here
            # keeps the split's own work inside the route layer.
            return lambda batch: iter(list(split(batch)))

        def stamp_enqueue(submit):
            def submit_batch(shard, batch):
                wf._enqueued[id(batch)] = _clock()
                submit(shard, batch)
                wf.backlog_sum += shard.backlog
            return submit_batch

        def note_lookup(lookup):
            def session_for(shard, user_id):
                t0 = _clock()
                session = lookup(shard, user_id)
                wf._lookup_s = _clock() - t0
                return session
            return session_for

        def stamp_dequeue(ingest):
            def ingest_batch(session, batch):
                queued = wf._enqueued.pop(id(batch), None)
                if queued is not None:
                    wf.queue_wait_s.append(
                        _clock() - queued - wf._lookup_s)
                wf._lookup_s = 0.0
                return ingest(session, batch)
            return ingest_batch


        def stamp_publish(estimate):
            def estimate_now(session, *args, **kwargs):
                message = estimate(session, *args, **kwargs)
                if message is not None:
                    wf._published[(message["user_id"],
                                   float(message["t"]))] = _clock()
                return message
            return estimate_now

        original_feed = FrameDecoder.feed
        decode = self.timed("decode", original_feed)
        ignored = self._ignored_decoders

        def feed(decoder, data):
            if id(decoder) in ignored:
                return original_feed(decoder, data)
            return decode(decoder, data)

        setattr(FrameDecoder, "feed", feed)
        self._patched.append((FrameDecoder, "feed", original_feed))
        self._patch(engine, "run_scenario", "sim")
        self._patch(ReportBatch, "split_by_user", "route", split_eagerly)
        self._patch(SessionShard, "submit_batch", "route", stamp_enqueue)
        self._patch(SessionShard, "session_for", "lookup", note_lookup)
        self._patch(SessionShard, "hibernate_session", "hibernate")
        self._patch(UserSession, "ingest_batch", "session", stamp_dequeue)
        self._patch(UserSession, "estimate_now", "publish", stamp_publish)
        self._patch(TagBreathe, "feed_batch", "feed")
        self._patch(TagBreathe, "estimate_user", "tick")
        self._patch(TagBreathe, "process", "process")

    def received(self, user_id: int, t: float) -> None:
        """A watching client got the estimate for ``(user_id, t)``."""
        published = self._published.pop((user_id, t), None)
        if published is not None and self._patched:
            self.watch_delay_s.append(_clock() - published)

    # ------------------------------------------------------------------
    def metrics(self, mean_latency_s: float,
                reports: int) -> Dict[str, float]:
        """The per-layer metrics of the window (see ``BENCHMARK.json``).

        ``reports`` is how many reports the window put through the path;
        call counts are given per thousand of them.
        """
        wall_s = self.window_s
        out: Dict[str, float] = {}
        busy = 0.0
        for layer in LAYERS:
            busy += self.self_s[layer]
            out[f"{layer}_pct"] = 100.0 * self.self_s[layer] / wall_s
        out["other_pct"] = 100.0 * max(0.0, wall_s - busy) / wall_s
        per_kreport = 1e3 / reports if reports else 0.0
        for layer in ("decode", "feed", "tick", "lookup", "hibernate"):
            out[f"{layer}_per_kreport"] = self.calls[layer] * per_kreport
        enqueued = len(self.queue_wait_s)
        out["backlog_mean"] = self.backlog_sum / enqueued if enqueued else 0.0
        for name, waits in (("queue_wait_pct", self.queue_wait_s),
                            ("watch_delay_pct", self.watch_delay_s)):
            mean = sum(waits) / len(waits) if waits else 0.0
            out[name] = (100.0 * mean / mean_latency_s
                         if mean_latency_s > 0 else 0.0)
        return out

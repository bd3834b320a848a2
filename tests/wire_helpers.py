"""Test helper: the retired per-report JSON ``report`` message shape.

Protocol v4 and later carry tag reads only as binary column frames.
Tests build JSON ``report`` frames, which an endpoint must refuse, and
per-report JSON for size comparisons with :func:`report_to_wire`.
"""

from typing import Any, Dict

from repro.reader.tagreport import TagReport


def report_to_wire(report: TagReport) -> Dict[str, Any]:
    """A ``report`` message for one tag read (trace_io JSONL shape)."""
    return {
        "type": "report",
        "epc": report.epc.to_hex(),
        "timestamp_s": report.timestamp_s,
        "phase_rad": report.phase_rad,
        "rssi_dbm": report.rssi_dbm,
        "doppler_hz": report.doppler_hz,
        "channel_index": report.channel_index,
        "antenna_port": report.antenna_port,
    }


async def raw_exchange(port: int, hello: Dict[str, Any],
                       message: Dict[str, Any], timeout_s: float = 10.0):
    """Speak raw frames to a server or router on localhost.

    Sends ``hello``, reads its reply, sends ``message``, then reads
    until the peer closes.  Returns ``(welcome, replies, closed)``:
    ``closed`` is True when the peer hung up within ``timeout_s``.
    """
    import asyncio

    from repro.serve.protocol import FrameDecoder, encode_frame

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    try:
        writer.write(encode_frame(hello))
        await writer.drain()
        welcome = []
        while not welcome:
            welcome = decoder.feed(await asyncio.wait_for(
                reader.read(1 << 16), timeout_s))
        writer.write(encode_frame(message))
        await writer.drain()
        replies, closed = welcome[1:], False
        while not closed:
            data = await asyncio.wait_for(reader.read(1 << 16), timeout_s)
            closed = not data
            replies.extend(decoder.feed(data))
        return welcome[0], replies, closed
    finally:
        writer.close()

"""Length-prefixed pickle framing for the session service's wire.

Every message between a :class:`~repro.service.client.ServiceClient`
and the ``repro serve`` daemon is one *frame*: a fixed 8-byte header —
4 magic bytes + a ``uint32`` big-endian payload length — followed by a
pickled payload::

    b"RPF1" | len(payload) as !I | pickle.dumps(payload)

The framing layer is deliberately dumb: it neither inspects nor
interprets payloads (that is :mod:`repro.service.ops`'s job), it just
guarantees message boundaries over a byte stream. Decoding unpickles,
so a peer must be trusted: both ends are meant to run the same
``repro`` checkout.

Boundary invariant (lint rule RL007): these helpers and this module are
the only place bytes are framed/unframed; nothing outside this module
and :mod:`repro.service` may import them or re-implement the format.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

from repro.errors import ReproError

#: Frame header magic; bump the digit when the frame layout changes.
FRAME_MAGIC = b"RPF1"

#: Header: magic + big-endian uint32 payload length.
_HEADER = struct.Struct("!4sI")

#: Hard cap on one frame's payload. Service ops are a few KB (an append
#: frame carries a batch of periods); anything near this size is a
#: protocol error, not a big message.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Bytes in the fixed frame header. Readers that own their own byte
#: transport (the asyncio service reads via ``readexactly``) read this
#: many bytes, pass them to :func:`parse_frame_header` for the body
#: length, then hand ``header + body`` to :func:`decode_frame` — the
#: format itself never leaves this module.
HEADER_SIZE = _HEADER.size


class FrameError(ReproError):
    """A malformed, oversized, or truncated frame."""


def encode_frame(payload: Any) -> bytes:
    """One framed message: header + pickled *payload*."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(FRAME_MAGIC, len(body)) + body


def decode_frame(frame: bytes) -> Any:
    """Invert :func:`encode_frame` on one complete frame."""
    if len(frame) < _HEADER.size:
        raise FrameError(f"frame of {len(frame)} bytes is shorter than a header")
    magic, length = _HEADER.unpack_from(frame)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    body = frame[_HEADER.size:]
    if len(body) != length:
        raise FrameError(
            f"frame body is {len(body)} bytes, header promised {length}"
        )
    return pickle.loads(body)


def parse_frame_header(header: bytes) -> int:
    """Validate one complete header and return the promised body length.

    Raises :class:`FrameError` on short input, wrong magic, or a length
    over :data:`MAX_FRAME_BYTES` — the same checks :func:`recv_frame`
    applies, factored out for transports that read their own bytes.
    """
    if len(header) != HEADER_SIZE:
        raise FrameError(
            f"frame header is {len(header)} bytes, expected {HEADER_SIZE}"
        )
    magic, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame header promises {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return length


def send_frame(sock: socket.socket, payload: Any) -> int:
    """Frame *payload* and send it whole; returns the bytes put on the wire."""
    frame = encode_frame(payload)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[Any, int]:
    """Read one complete frame; returns ``(payload, bytes_read)``.

    Raises :class:`EOFError` on a clean close before any header byte
    (the peer hung up between frames) and :class:`FrameError` on a
    malformed or oversized header.
    """
    header = _recv_exact(sock, HEADER_SIZE)
    length = parse_frame_header(header)
    body = _recv_exact(sock, length)
    return pickle.loads(body), HEADER_SIZE + length


__all__ = [
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "FrameError",
    "decode_frame",
    "encode_frame",
    "parse_frame_header",
    "recv_frame",
    "send_frame",
]

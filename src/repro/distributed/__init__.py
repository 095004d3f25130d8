"""RPF1 wire framing, the byte layer under the session service.

:mod:`repro.distributed.framing` is the one place messages are turned
into bytes on a socket and back: a fixed 8-byte header (magic plus a
big-endian length) followed by a pickled payload. The session service
(:mod:`repro.service`) is its only user; lint rule RL007 confines the
format to that module and that package.
"""

from repro.distributed.framing import (
    FRAME_MAGIC,
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    parse_frame_header,
    recv_frame,
    send_frame,
)

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

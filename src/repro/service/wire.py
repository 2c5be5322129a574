"""Length-prefixed pickle framing over stream sockets.

The service layer speaks exactly one wire format: each message is an
8-byte big-endian payload length followed by that many bytes of pickle.
:class:`MessageChannel` wraps a connected stream socket in the same
``send`` / ``recv`` / ``poll`` / ``close`` surface as
:class:`multiprocessing.connection.Connection`, which is what lets the
federation worker protocol reuse the orchestrator's pipe idioms.

A closed peer surfaces as :class:`ChannelClosed`, a subclass of
:exc:`EOFError`, so every existing ``except (EOFError, BrokenPipeError,
OSError)`` clause written for pipes handles sockets too.

Pickle over a socket executes arbitrary code on unpickling: this
transport is for coordinator/worker fleets under one administrative
domain (localhost, a trusted cluster network), never for untrusted
peers.  The HTTP job API is the JSON-only boundary for those.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import threading

__all__ = ["ChannelClosed", "MessageChannel", "connect_channel"]

#: Frame header: one unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Refuse frames beyond this size -- a desynchronized or hostile peer
#: would otherwise make us allocate whatever 8 bytes of garbage decode
#: to.  1 GiB comfortably clears the largest checkpoint blobs.
MAX_MESSAGE_BYTES = 1 << 30


class ChannelClosed(EOFError):
    """The peer closed the connection (clean shutdown or death)."""


class MessageChannel:
    """One framed pickle stream over a connected socket.

    ``send`` is serialized by an internal lock so any number of threads
    may write (the worker's heartbeat thread shares the channel with
    its main loop); ``recv`` is likewise locked, but the protocol keeps
    a single reader per channel so replies pair with requests.
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (e.g. a socketpair); framing works regardless
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    # -- sending ----------------------------------------------------------

    def send(self, obj) -> None:
        """Pickle ``obj`` and write it as one frame (thread-safe)."""
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(payload)) + payload
        with self._send_lock:
            if self._closed:
                raise BrokenPipeError("channel is closed")
            try:
                self._sock.sendall(frame)
            except OSError:
                raise BrokenPipeError("peer went away mid-send") from None

    # -- receiving --------------------------------------------------------

    def _recv_exact(self, count: int) -> bytes:
        buffer = bytearray(count)
        view = memoryview(buffer)
        received = 0
        while received < count:
            try:
                chunk = self._sock.recv_into(view[received:])
            except OSError:
                raise ChannelClosed("connection reset") from None
            if chunk == 0:
                raise ChannelClosed("peer closed the connection")
            received += chunk
        return bytes(buffer)

    def recv(self):
        """Read one frame and unpickle it; :class:`ChannelClosed` on EOF."""
        with self._recv_lock:
            if self._closed:
                raise ChannelClosed("channel is closed")
            (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
            if length > MAX_MESSAGE_BYTES:
                raise ChannelClosed(
                    f"oversized frame ({length} bytes): desynchronized peer"
                )
            return pickle.loads(self._recv_exact(length))

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame header is readable within ``timeout`` seconds.

        Exact-read framing never buffers ahead, so socket readability is
        message availability -- the property that makes ``select`` a
        correct ``poll`` here.
        """
        if self._closed:
            return False
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except OSError:
            return False
        return bool(ready)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def __enter__(self) -> "MessageChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect_channel(
    address: tuple[str, int], timeout: float | None = 10.0
) -> MessageChannel:
    """Connect to ``(host, port)`` and wrap the socket in a channel.

    The connect itself honors ``timeout``; the established channel is
    switched back to blocking mode (the protocol's reads are meant to
    park until the peer speaks).
    """
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(None)
    return MessageChannel(sock)

"""Transports: move protocol frames between driver and shard workers.

:mod:`repro.weakset.protocol` defines *what* crosses the wire; this
module is *how*.  A :class:`Transport` is one bidirectional frame
channel to one shard worker, and three implementations cover the three
places a shard world can live:

* :class:`InProcTransport` — the worker is an object in this process;
  frames still round-trip through the binary codec (so the protocol is
  exercised end-to-end) but no OS channel is involved.  The cheapest
  way to test the stack, and the ``backend="inproc"`` execution mode.
  Built with ``codec=None`` it hands the message objects across
  untouched — the ``backend="serial"`` channel.
* :class:`PipeTransport` — a ``multiprocessing`` pipe to a forked or
  spawned worker process on this machine (the pipe backend's channel,
  extracted from the pre-PR-4 ``MultiprocessBackend`` internals).
* :class:`SocketTransport` — a TCP stream, so the worker can live on
  another machine entirely.  Frames are already length-prefixed, so
  the stream needs no extra delimiting.

:func:`exchange_all` is the **round loop**: it issues every shard's
request first (so every worker computes concurrently), then harvests
one reply per channel in index order, each under its own request's
deadline.  Results are **order-canonical** (reply ``i`` belongs to
transport ``i``), which is why backend traces stay byte-identical for
a fixed seed.

Rebalance traffic rides the same channels: a membership change first
quiesces the pipelined window (every in-flight frame is harvested, so
the wire is empty), then the driver runs ``Migrate``/replay exchanges
over these transports like any other request — no side channel, and
the frame ordering a worker observes stays deterministic.

Example — the protocol stack over an in-process echo worker:

    >>> from repro.weakset.protocol import StopRequest, StopReply
    >>> transport = InProcTransport(lambda request: StopReply())
    >>> transport.send(StopRequest())
    >>> transport.recv()
    StopReply()
"""

from __future__ import annotations

import selectors
import socket
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from repro.errors import ReproError
from repro.weakset.protocol import (
    DEFAULT_CODEC,
    HEADER_SIZE,
    ErrorReply,
    ProtocolError,
    StopReply,
    StopRequest,
    decode_body,
    decode_header,
    decode_message,
    encode_message,
)

__all__ = [
    "Transport",
    "TransportError",
    "InProcTransport",
    "PipeTransport",
    "SocketTransport",
    "send_all",
    "harvest_all",
    "exchange_all",
    "serve_requests",
]


class TransportError(ReproError):
    """The peer is gone or the channel failed mid-frame."""


class Transport(ABC):
    """One bidirectional frame channel to one shard worker.

    ``codec`` is the frame codec this side *emits* (``"binary"`` by
    default, ``"json"`` as the debug/fallback).  Frames are
    self-describing — the header carries a codec byte — so ``recv``
    accepts either codec regardless; the socket bootstrap negotiates
    what both sides emit and assigns ``codec`` accordingly.
    """

    #: the frame codec ``send`` emits (decoding is self-describing).
    codec: str = DEFAULT_CODEC

    @abstractmethod
    def send(self, message: object) -> None:
        """Encode and ship one message; :class:`TransportError` if the
        peer is gone."""

    @abstractmethod
    def recv(self) -> object:
        """Block for the next message; :class:`TransportError` on EOF."""

    @abstractmethod
    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a message is (or becomes, within ``timeout``) ready."""

    def send_raw(self, frame: bytes) -> None:
        """Ship pre-encoded (possibly malformed) frame bytes verbatim.

        The fault-injection hook: lets a wrapper put a truncated or
        corrupted frame on the wire, which ``send``'s encode step never
        would.  Channels without a byte-level wire (the in-process
        transport) cannot carry one and refuse.
        """
        raise TransportError("transport cannot ship raw frames")

    def close(self) -> None:
        """Release the channel (idempotent)."""


class InProcTransport(Transport):
    """A worker living in this process, behind the full codec.

    ``send`` encodes the request to frame bytes, decodes them on "the
    other side", hands the message to ``handler`` and buffers the
    encoded reply for ``recv`` — so every message still round-trips
    the binary codec exactly as it would over a pipe or socket, and a
    value the codec cannot carry fails here too (instead of only
    failing once a real network is involved).

    With ``codec=None`` the channel skips the codec: request and reply
    objects pass by reference, so any value travels and a reply that
    carries live state (a trace) stays live.
    """

    def __init__(
        self,
        handler: Callable[[object], object],
        codec: Optional[str] = DEFAULT_CODEC,
    ):
        self._handler = handler
        self.codec = codec
        self._inbox: Deque[object] = deque()
        self._closed = False

    def send(self, message: object) -> None:
        if self._closed:
            raise TransportError("transport closed")
        if self.codec is not None:
            message = decode_message(encode_message(message, self.codec))
        try:
            reply = self._handler(message)
        except BaseException:
            reply = ErrorReply(traceback.format_exc())
        if self.codec is not None:
            reply = encode_message(reply, self.codec)
        self._inbox.append(reply)

    def recv(self) -> object:
        if not self._inbox:
            raise TransportError("no reply pending (send first)")
        reply = self._inbox.popleft()
        return reply if self.codec is None else decode_message(reply)

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._inbox)

    def close(self) -> None:
        self._closed = True
        self._inbox.clear()


class PipeTransport(Transport):
    """Frames over a ``multiprocessing`` pipe connection."""

    def __init__(self, connection, codec: str = DEFAULT_CODEC):
        self._conn = connection
        self.codec = codec

    def send(self, message: object) -> None:
        try:
            self._conn.send_bytes(encode_message(message, self.codec))
        except (OSError, ValueError):
            raise TransportError("pipe peer is gone") from None

    def send_raw(self, frame: bytes) -> None:
        try:
            self._conn.send_bytes(frame)
        except (OSError, ValueError):
            raise TransportError("pipe peer is gone") from None

    def recv(self) -> object:
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise TransportError("pipe peer exited") from None
        return decode_message(frame)

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except (OSError, ValueError):  # pragma: no cover - defensive
            return False

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


class SocketTransport(Transport):
    """Frames over a connected TCP (or Unix) stream socket.

    The protocol's length-prefixed framing is exactly what a byte
    stream needs: read the fixed header, then read exactly the body it
    announces.  ``TCP_NODELAY`` is set where applicable — every frame
    is a complete request or reply awaited by the peer, so Nagle
    buffering only adds latency.
    """

    def __init__(self, sock: socket.socket, codec: str = DEFAULT_CODEC):
        self._sock = sock
        self.codec = codec
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair, Unix domain)

    def _read_exactly(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError:
                raise TransportError("socket peer is gone") from None
            if not chunk:
                raise TransportError("socket closed by peer")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send(self, message: object) -> None:
        try:
            self._sock.sendall(encode_message(message, self.codec))
        except OSError:
            raise TransportError("socket peer is gone") from None

    def send_raw(self, frame: bytes) -> None:
        try:
            self._sock.sendall(frame)
        except OSError:
            raise TransportError("socket peer is gone") from None

    def recv(self) -> object:
        codec_id, length = decode_header(self._read_exactly(HEADER_SIZE))
        return decode_body(self._read_exactly(length), codec_id)

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self._sock, selectors.EVENT_READ)
                return bool(selector.select(timeout))
        except (OSError, ValueError):  # pragma: no cover - defensive
            return False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone
        self._sock.close()


# ----------------------------------------------------------------------
# the exchange
# ----------------------------------------------------------------------
def send_all(
    transports: Sequence[Transport],
    requests: Sequence[object],
    *,
    timeout: Optional[float] = None,
) -> Optional[List[float]]:
    """Send ``requests[i]`` on ``transports[i]`` for all ``i``.

    The issue half of an exchange, usable on its own by pipelined
    drivers that want several request waves in flight before the first
    harvest.  With ``timeout`` set, returns the per-request reply
    deadlines — each stamped ``time.monotonic() + timeout`` *at its own
    send* — for :func:`harvest_all`; the deadline belongs to the
    request, so a wave sent later does not inherit an earlier wave's
    (staler) deadline.  Returns ``None`` when ``timeout`` is ``None``.

    Raises :class:`TransportError` annotated with the failing index.
    """
    if len(transports) != len(requests):
        raise ValueError("one request per transport required")
    deadlines: Optional[List[float]] = None if timeout is None else []
    for index, (transport, request) in enumerate(zip(transports, requests)):
        try:
            transport.send(request)
        except TransportError as error:
            raise TransportError(f"shard {index}: {error}") from None
        if deadlines is not None:
            deadlines.append(time.monotonic() + timeout)
    return deadlines


def harvest_all(
    transports: Sequence[Transport],
    *,
    deadlines: Optional[Sequence[float]] = None,
    timeout: Optional[float] = None,
) -> List[object]:
    """Receive exactly one reply per transport, in index order.

    The harvest half of an exchange.  The returned list is
    index-aligned with ``transports``.  Each call consumes exactly one
    reply per channel, and channels deliver replies in request order —
    so a pipelined driver that issued several waves via
    :func:`send_all` harvests them one wave at a time, oldest first,
    and reply ``i`` of each harvest is transport ``i``'s answer to its
    request in that wave.

    ``deadlines`` optionally bounds each reply individually (monotonic
    timestamps, index-aligned — normally :func:`send_all`'s return
    value); a transport whose own deadline passes without a reply
    raises :class:`TransportError` naming it.  ``timeout`` only labels
    that error with the originally requested budget.
    """
    replies: List[object] = []
    limit = "its deadline" if timeout is None else f"{timeout:g}s"
    for index, transport in enumerate(transports):
        if deadlines is not None:
            remaining = deadlines[index] - time.monotonic()
            if remaining <= 0 or not transport.poll(remaining):
                raise TransportError(f"shard {index}: no reply within {limit}")
        try:
            replies.append(transport.recv())
        except TransportError as error:
            raise TransportError(f"shard {index}: {error}") from None
    return replies


def exchange_all(
    transports: Sequence[Transport],
    requests: Sequence[object],
    *,
    timeout: Optional[float] = None,
) -> List[object]:
    """One request/reply round trip with every shard.

    Sends ``requests[i]`` on ``transports[i]`` for all ``i`` *first*
    (so every worker computes concurrently), then harvests one reply
    per channel in index order; the returned list is index-aligned
    with the inputs, so the caller processes replies in canonical
    shard order.  (:func:`send_all` and :func:`harvest_all` are the
    two halves, exposed separately for pipelined drivers that keep
    several waves in flight.)

    ``timeout`` optionally bounds each reply: the deadline is stamped
    **per request at its send** (not once per call), so a reply's
    budget starts when its own request went out — a wedged or silent
    worker becomes a diagnosable :class:`TransportError` naming the
    shard still owing a reply instead of a hang.  ``None`` (the
    default) blocks until every reply arrives.

    Raises :class:`TransportError` (annotated with the shard index) as
    soon as any channel fails; remaining replies are left unread — the
    round is poisoned either way, and the owning backend fails closed.
    """
    deadlines = send_all(transports, requests, timeout=timeout)
    return harvest_all(transports, deadlines=deadlines, timeout=timeout)


# ----------------------------------------------------------------------
# the worker-side serve loop
# ----------------------------------------------------------------------
def serve_requests(transport: Transport, handler: Callable[[object], object]) -> None:
    """Serve protocol requests until stop, peer exit, or failure.

    The worker half of every backend: receive a request, hand it to
    ``handler``, send the reply.  A :class:`~repro.weakset.protocol.StopRequest`
    is acknowledged and ends the loop; a handler exception is reported
    as an :class:`~repro.weakset.protocol.ErrorReply` and ends the loop
    (the world is mid-round and cannot be trusted — the parent fails
    closed on its side); a vanished peer just ends the loop.
    """
    while True:
        try:
            request = transport.recv()
        except (TransportError, ProtocolError):
            break
        if isinstance(request, StopRequest):
            try:
                transport.send(StopReply())
            except TransportError:
                pass
            break
        try:
            reply = handler(request)
        except BaseException:
            try:
                transport.send(ErrorReply(traceback.format_exc()))
            except TransportError:
                pass
            break
        try:
            transport.send(reply)
        except TransportError:
            break

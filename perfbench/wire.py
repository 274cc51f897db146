"""A minimal NDJSON client for the load generator.

Written against the wire format (one JSON object per line), not against
``repro.service.client``, so the client side of the benchmark shares no code
with the server it measures.  Every frame sent is appended to a shared log;
the benchmark hashes that log to show that a seed fixes the request
sequence.
"""

from __future__ import annotations

import json
import socket

__all__ = ["Connection"]


class Connection:
    """One TCP connection to the benchmark's server."""

    def __init__(self, port: int, log: list[bytes]) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self._log = log

    def send(self, frame: dict) -> None:
        data = (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")
        self._log.append(data)
        self.sock.sendall(data)

    def _split(self) -> list[dict]:
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self._buffer += chunk

    def recv(self) -> dict:
        """Block until one whole reply frame has arrived."""
        while b"\n" not in self._buffer:
            self._fill()
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def recv_ready(self) -> list[dict]:
        """Every complete reply after one read; call only when a selector
        reports the socket readable, so the read does not block."""
        self._fill()
        return self._split()

    def call(self, frame: dict) -> dict:
        self.send(frame)
        return self.recv()

    def close(self) -> None:
        self.sock.close()

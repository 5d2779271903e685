"""The front door shared by every wire front-end.

:class:`~repro.server.server.DatabaseServer` and
:class:`~repro.cluster.router.ShardRouter` differ in what a session
does with a request, not in how a session arrives.  A
:class:`Listener` owns that common part: the TCP listener and its
accept loop, the in-process loopback path, one thread per session, and
the registry of live sessions that shutdown walks.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Callable

from repro.common.errors import ServerShutdownError
from repro.server.client import DatabaseClient
from repro.server.protocol import FrameConn, SocketTransport, loopback_pair


class Listener:
    """Accept sessions for one front-end and run each on its own thread.

    ``new_session(conn, session_id)`` builds the front-end's session
    object, which has a ``session_id`` and a ``serve`` method; ``serve``
    runs on the session thread and must call :meth:`forget` when done.
    ``name`` prefixes thread names and error messages.
    """

    def __init__(
        self, name: str, new_session: Callable[[FrameConn, int], Any]
    ) -> None:
        self.name = name
        self._new_session = new_session
        self._session_ids = itertools.count(1)
        self._sessions: set = set()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self.accepting = False

    def open(self, address: tuple[str, int] | None) -> None:
        """Start accepting sessions: loopback always, TCP on
        ``(host, port)`` unless ``address`` is None."""
        self.accepting = True
        if address is None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
        sock.listen(128)
        self._sock = sock
        self._address = sock.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(sock,),
            name=f"{self.name}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def close(self) -> None:
        """Stop accepting.  ``shutdown`` wakes the thread blocked in
        ``accept()`` (a bare ``close`` does not), so the join is prompt."""
        self.accepting = False
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the TCP listener is bound to."""
        if self._address is None:
            raise ServerShutdownError(f"{self.name} is not listening")
        return self._address

    def connect(self, timeout: float | None = 30.0) -> DatabaseClient:
        """New client over real TCP."""
        host, port = self.address
        return DatabaseClient.connect(host, port, timeout=timeout)

    def connect_loopback(self) -> DatabaseClient:
        """New client over an in-process socketpair (no TCP stack)."""
        if not self.accepting:
            raise ServerShutdownError(f"{self.name} is not accepting sessions")
        server_end, client_end = loopback_pair()
        self._spawn(server_end)
        return DatabaseClient(FrameConn(client_end))

    def _accept_loop(self, sock: socket.socket) -> None:
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return  # listener shut down
            if not self.accepting:
                conn.close()
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(SocketTransport(conn))

    def _spawn(self, transport: SocketTransport) -> None:
        session = self._new_session(FrameConn(transport), next(self._session_ids))
        thread = threading.Thread(
            target=session.serve,
            name=f"{self.name}-session-{session.session_id}",
            daemon=True,
        )
        with self._lock:
            self._sessions.add(session)
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()

    def forget(self, session: Any) -> None:
        with self._lock:
            self._sessions.discard(session)

    def sessions(self) -> list:
        """The live sessions, snapshotted."""
        with self._lock:
            return list(self._sessions)

    def join_sessions(self, timeout: float) -> None:
        """Wait (up to ``timeout`` each) for the session threads to end."""
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)

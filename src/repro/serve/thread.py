"""A service on a private event loop in a thread, for synchronous callers.

No module-level asyncio: a process that only names :class:`ServerThread`
pays for the serving runtime (asyncio, ssl, multiprocessing) only when a
server starts.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:
    import asyncio
    from repro.serve.protocol import ServeAddress
    from repro.serve.server import SimServer


class LoopThread:
    """Run one ``start()``/``stop()`` service on a private event loop in
    a thread (tests, the CLI's self-hosted loadgen, the benchmark).

    ``factory`` builds the service *on the loop thread*, where its
    asyncio primitives belong; a failure to start is re-raised from
    ``__enter__`` instead of hanging it.
    """

    def __init__(self, factory: Callable[[], Any], name: str) -> None:
        self._factory = factory
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._service: Any = None

    def __enter__(self):
        import asyncio
        started = threading.Event()
        boot_error: List[BaseException] = []

        def _run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._service = self._loop.run_until_complete(
                    self._factory().start())
            except BaseException as err:   # fail fast, don't hang __enter__
                boot_error.append(err)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, name=self._name,
                                        daemon=True)
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise RuntimeError(f"{self._name} failed to start within 30s")
        if boot_error:
            self._thread.join(timeout=10.0)
            self._loop = None
            raise boot_error[0]
        return self

    @property
    def address(self) -> ServeAddress:
        return self._service.address

    @property
    def host(self) -> str:
        return self.address.host

    @property
    def port(self) -> int:
        return self.address.port

    def call(self, coro_fn, *args: Any, timeout: float = 60.0) -> Any:
        """Run ``coro_fn(service, *args)`` on the service's loop."""
        import asyncio
        fut = asyncio.run_coroutine_threadsafe(
            coro_fn(self._service, *args), self._loop)
        return fut.result(timeout=timeout)

    def __exit__(self, *exc: Any) -> None:
        import asyncio
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._service.stop(), self._loop).result(timeout=30.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()


class ServerThread(LoopThread):
    """A :class:`~repro.serve.server.SimServer` on a private event loop
    in a thread — for the CLI's self-hosted loadgen, tests, the sync
    client's examples::

        with ServerThread(workers=2) as srv:
            client = ServeClient(srv.address)
    """

    def __init__(self, **server_kwargs: Any) -> None:
        super().__init__(None, "serve-server")
        self._server_kwargs = server_kwargs

    def __enter__(self):
        # Import on the caller's thread: from the factory, on the loop
        # thread, serve-cold / serve-hot peak RSS read 1.5 / 3.7 MB
        # higher (2-vCPU x86-64 VM, three runs each).
        from repro.serve.server import SimServer
        self._factory = functools.partial(SimServer, **self._server_kwargs)
        return super().__enter__()

    @property
    def server(self) -> Optional[SimServer]:
        return self._service

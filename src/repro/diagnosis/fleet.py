"""Multi-process diagnosis serving: a pre-fork worker fleet.

One Python process caps the vectorized matcher at a single core — the
GIL serializes every NumPy dispatch the keep-alive handler threads
queue up.  This module runs *N* full :class:`~repro.diagnosis.server.
DiagnosisServer` processes accepting on one shared port, so the
dictionary matcher scales with the tester fleet instead of with one
interpreter:

* **Shared port.**  On Linux every worker binds its own listening
  socket with ``SO_REUSEPORT`` and the kernel load-balances incoming
  connections across them; elsewhere the supervisor binds a single
  listening socket before forking and the workers inherit it,
  sharing the kernel accept queue.  Either way one ``host:port``
  serves the whole fleet.
* **Own state per worker.**  Each worker process builds its own
  :class:`~repro.diagnosis.registry.DictionaryRegistry` snapshot,
  matcher and batcher from the registered sources — no shared mutable
  state crosses the fork, and a worker that dies loses only its own
  in-flight requests.
* **Supervision.**  The supervisor watches worker processes and
  restarts crashed ones with exponential backoff; the shared port
  never drops because the surviving workers (and, in ``SO_REUSEPORT``
  mode, the supervisor's bound placeholder socket) keep it open.
* **Graceful drain.**  ``SIGTERM`` (or :meth:`DiagnosisFleet.stop`)
  stops every worker accepting, finishes the in-flight keep-alive
  requests (replies carry ``Connection: close``), and only then lets
  the processes exit — zero 5xx during shutdown.
* **Coherent hot-reload.**  ``POST /v1/dictionaries/<name>/reload``
  landing on *any* worker is forwarded over that worker's control
  channel to the supervisor, which drives build→validate→swap on
  every worker and answers with the aggregate version — a client can
  never observe a torn fleet.  A reload that fails validation on the
  first worker aborts before touching the rest; a worker that fails
  after that is restarted with the full reload history replayed, so
  it rejoins at the fleet's version.  Restarted workers replay the
  same history for the same reason.
* **Fleet metrics.**  ``GET /v1/metrics`` on any worker aggregates
  every worker's counters (requests, responses, batching stats,
  matcher throughput) through the control channel — observability
  survives the fork.

The control channel is a pair of pipes per worker: a *command* pipe
the supervisor drives (reload / metrics / describe / drain / ping)
and a *forward* pipe the worker drives (fleet-wide reload and metrics
requests originating from its HTTP handlers).  Each pipe carries
strictly request→reply traffic under a lock; forward-pipe requests
are tagged with an id the supervisor echoes, so a late answer to a
call the worker already timed out is discarded rather than being
mistaken for the next call's reply.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .db import DiagnosisDB
from .registry import DictionaryRegistry, RegistryError
from .server import ApiError, DiagnosisServer, serve

#: how long the supervisor waits for a freshly spawned worker to
#: report ready (covers eager dictionary loads from slow disks)
READY_TIMEOUT = 60.0

#: how long a worker gets to finish in-flight requests on drain
DRAIN_TIMEOUT = 10.0

#: how long the supervisor waits for a worker's control reply
COMMAND_TIMEOUT = 60.0

#: crash-restart backoff: base * 2**restarts, capped
BACKOFF_BASE = 0.2
BACKOFF_CAP = 5.0

#: a worker alive longer than this before dying resets its backoff
BACKOFF_RESET = 30.0


class FleetError(RuntimeError):
    """Raised when the fleet cannot start or loses all workers."""


def reuseport_available() -> bool:
    """True where ``SO_REUSEPORT`` load-balances TCP accepts (Linux).

    Other platforms may define the constant with different semantics
    (BSD delivers every connection to one socket), so they use the
    inherited-listener fallback instead.
    """
    return sys.platform.startswith("linux") and \
        hasattr(socket, "SO_REUSEPORT")


def _reuseport_socket(address: Tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(address)
    except BaseException:
        sock.close()
        raise
    return sock


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its server."""

    index: int
    address: Tuple[str, int]
    dictionaries: List[Tuple[str, str]]
    default: Optional[str] = None
    top_k: int = 5
    lazy: bool = False
    db_path: Optional[str] = None
    verbose: bool = False
    reuseport: bool = True
    #: (name, source) reloads already applied fleet-wide, replayed at
    #: start so a restarted worker rejoins at the fleet's version
    history: List[Tuple[str, Optional[str]]] = field(
        default_factory=list)
    drain_timeout: float = DRAIN_TIMEOUT


class _WorkerController:
    """The ``server.controller`` hook inside a worker process:
    forwards fleet-wide operations to the supervisor over the forward
    pipe (one request→reply at a time)."""

    def __init__(self, conn, timeout: float = COMMAND_TIMEOUT) -> None:
        self._conn = conn
        self._lock = threading.Lock()
        self._timeout = timeout
        self._next_id = 0

    def _call(self, request: Dict) -> Dict:
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            try:
                self._conn.send({**request, "id": request_id})
                deadline = time.monotonic() + self._timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or \
                            not self._conn.poll(remaining):
                        raise ApiError(
                            "fleet supervisor did not answer",
                            status=503, code="fleet_unavailable")
                    reply = self._conn.recv()
                    # a late answer to an earlier call that timed
                    # out client-side may still sit in the pipe;
                    # matching ids keeps the channel from going
                    # permanently off-by-one
                    if reply.get("id") == request_id:
                        break
            except (EOFError, OSError) as exc:
                raise ApiError(
                    f"fleet control channel broken: {exc}",
                    status=503, code="fleet_unavailable") from exc
        if not reply.get("ok"):
            raise ApiError(reply.get("message", "fleet error"),
                           status=reply.get("status", 500),
                           code=reply.get("code", "internal"))
        return reply["payload"]

    def reload(self, name: str, source: Optional[str]) -> Dict:
        return self._call({"op": "reload", "name": name,
                           "source": source})

    def metrics(self) -> Dict:
        return self._call({"op": "metrics"})


class _WorkerRuntime:
    """Drain-once state shared by the worker's signal handler, its
    control loop and its main thread."""

    def __init__(self, server: DiagnosisServer,
                 db: Optional[DiagnosisDB],
                 drain_timeout: float) -> None:
        self.server = server
        self.db = db
        self.drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._drained: Optional[bool] = None

    def drain(self) -> bool:
        with self._lock:
            if self._drained is None:
                self._drained = self.server.drain(self.drain_timeout)
            return self._drained


def _worker_control_loop(runtime: _WorkerRuntime, cmd_conn) -> None:
    """Serve the supervisor's command pipe (reload / metrics /
    describe / drain / ping) independently of HTTP handler threads —
    which is what keeps the fleet deadlock-free: a worker forwarding
    a fleet reload can still execute its own share of it."""
    server = runtime.server
    while True:
        try:
            msg = cmd_conn.recv()
        except (EOFError, OSError):
            # supervisor is gone; drain and die
            runtime.drain()
            os._exit(0)
        op = msg.get("op")
        try:
            if op == "reload":
                payload = server.local_reload(msg["name"],
                                              msg.get("source"))
                reply = {"ok": True, **payload}
            elif op == "metrics":
                reply = {"ok": True, "pid": os.getpid(),
                         "payload": server.local_metrics()}
            elif op == "describe":
                versions = {row["name"]: row.get("version", 0)
                            for row in server.registry.describe()}
                reply = {"ok": True, "pid": os.getpid(),
                         "versions": versions,
                         "active": server.active_connections}
            elif op == "drain":
                reply = {"ok": True, "drained": runtime.drain()}
            elif op == "ping":
                reply = {"ok": True, "pid": os.getpid()}
            else:
                reply = {"ok": False, "status": 500,
                         "code": "internal",
                         "message": f"unknown control op {op!r}"}
        except ApiError as exc:
            reply = {"ok": False, "status": exc.status,
                     "code": exc.code, "message": str(exc)}
        except Exception as exc:  # control must never kill the loop
            reply = {"ok": False, "status": 500, "code": "internal",
                     "message": f"{type(exc).__name__}: {exc}"}
        try:
            cmd_conn.send(reply)
        except (BrokenPipeError, OSError):
            runtime.drain()
            os._exit(0)


def _worker_main(config: WorkerConfig, cmd_conn, fwd_conn,
                 listener: Optional[socket.socket],
                 close_conns: Sequence = ()) -> int:
    """Entry point of one fleet worker process."""
    # the supervisor owns lifecycle; a terminal Ctrl-C must not kill
    # workers before they drain
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # under fork this child inherited every control-channel fd the
    # supervisor holds: its own channel's parent ends and every
    # earlier sibling's.  Any copy left open here would keep the
    # EOF-based "supervisor is gone; drain and die" path in
    # _worker_control_loop from ever firing on a SIGKILLed
    # supervisor — the fleet would run orphaned, holding the port.
    for conn in close_conns:
        try:
            conn.close()
        except OSError:
            pass
    try:
        registry = DictionaryRegistry(top_k=config.top_k)
        for name, path in config.dictionaries:
            registry.register(name, source=path, lazy=config.lazy,
                              default=(name == config.default))
        for name, source in config.history:
            registry.reload(name, source=source)
        db = DiagnosisDB(config.db_path) if config.db_path else None
        server = serve(registry=registry, verbose=config.verbose, db=db,
                       bind_and_activate=False)
        sock = listener if listener is not None else \
            _reuseport_socket(config.address)
        server.adopt_socket(sock)
    except Exception as exc:
        try:
            fwd_conn.send({"op": "failed",
                           "error": f"{type(exc).__name__}: {exc}"})
        except (BrokenPipeError, OSError):
            pass
        return 1

    runtime = _WorkerRuntime(server, db, config.drain_timeout)
    server.controller = _WorkerController(fwd_conn)
    control = threading.Thread(
        target=_worker_control_loop, args=(runtime, cmd_conn),
        name=f"fleet-control-{config.index}", daemon=True)
    control.start()

    def _on_sigterm(signum, frame):
        # the handler must return quickly; the drain blocks on
        # in-flight requests, so it runs on its own thread
        threading.Thread(target=runtime.drain, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    fwd_conn.send({"op": "ready", "pid": os.getpid(),
                   "port": server.server_address[1]})
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        # serve_forever only exits via shutdown() — i.e. a drain is
        # in flight; finish it before releasing the process
        runtime.drain()
        try:
            server.server_close()
        except OSError:
            pass
        if db is not None:
            db.close()
    return 0


class _Worker:
    """Supervisor-side bookkeeping for one worker process."""

    def __init__(self, index: int, process, cmd_conn, fwd_conn,
                 pid: int, restarts: int) -> None:
        self.index = index
        self.process = process
        self.cmd_conn = cmd_conn
        self.fwd_conn = fwd_conn
        self.pid = pid
        self.restarts = restarts
        self.cmd_lock = threading.Lock()
        self.spawned_monotonic = time.monotonic()

    def close(self) -> None:
        for conn in (self.cmd_conn, self.fwd_conn):
            try:
                conn.close()
            except OSError:
                pass


#: metric leaves that aggregate by max, not sum
_MAX_KEYS = frozenset({"max_batch_wall", "max_block", "version",
                       "dictionary_classes"})

#: metric leaves that are per-process observations, not counters —
#: the supervisor substitutes fleet-level values for the top-level
#: ones and keeps the first worker's elsewhere
_FIRST_KEYS = frozenset({"uptime", "started_at", "age"})

#: derived rate/ratio leaves: dropped during the merge (summing or
#: keeping one worker's rate next to fleet-summed counters yields
#: mutually inconsistent numbers) and recomputed from the summed
#: counters afterwards
_RATE_KEYS = frozenset({"queries_per_second", "ambiguity_rate",
                        "resolution_rate"})


def _merge_numeric(dst: Dict, src: Dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict):
            _merge_numeric(dst.setdefault(key, {}), value)
        elif key in _RATE_KEYS:
            continue  # recomputed by _recompute_rates after the fold
        elif isinstance(value, bool) or not isinstance(
                value, (int, float)):
            dst.setdefault(key, value)
        elif key in _FIRST_KEYS:
            dst.setdefault(key, value)
        elif key in _MAX_KEYS:
            dst[key] = max(dst.get(key, value), value)
        else:
            dst[key] = dst.get(key, 0) + value


def _recompute_rates(node: Dict) -> None:
    """Restore the rate leaves from the fleet-summed counters (wall
    time is cumulative work, so fleet qps is summed queries over
    summed wall — not one worker's local rate)."""
    for value in node.values():
        if isinstance(value, dict):
            _recompute_rates(value)
    queries = node.get("queries")
    wall = node.get("wall_time")
    if isinstance(queries, (int, float)) and \
            isinstance(wall, (int, float)):
        node["queries_per_second"] = \
            queries / wall if wall > 0 else 0.0
    if all(isinstance(node.get(k), (int, float))
           for k in ("matched", "ambiguous", "unmatched")):
        failing = (node["matched"] + node["ambiguous"] +
                   node["unmatched"])
        node["ambiguity_rate"] = \
            node["ambiguous"] / failing if failing else 0.0


def aggregate_metrics(payloads: Sequence[Dict]) -> Dict:
    """Fold per-worker ``local_metrics`` payloads into one fleet
    view: counters (including cumulative wall time) sum, high-water
    marks take the max, rates are recomputed from the summed
    counters, and the ``db`` block (one shared SQLite file — already
    fleet-wide) comes from the most recent reader instead of being
    multiplied."""
    aggregate: Dict = {}
    db_block = None
    for payload in payloads:
        payload = dict(payload)
        db_block = payload.pop("db", db_block)
        _merge_numeric(aggregate, payload)
    _recompute_rates(aggregate)
    if db_block is not None:
        aggregate["db"] = db_block
    return aggregate


class DiagnosisFleet:
    """Pre-fork supervisor for a multi-process diagnosis service.

    ``dictionaries`` uses the CLI's ``[NAME=]PATH`` spec strings (or
    pre-parsed ``(name, path)`` tuples).  :meth:`start` binds the
    shared port and spawns the workers; :meth:`stop` drains them.
    """

    def __init__(self, dictionaries: Sequence,
                 procs: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 top_k: int = 5,
                 default: Optional[str] = None,
                 lazy: bool = False,
                 db_path: Optional[str] = None,
                 verbose: bool = False,
                 reuseport: Optional[bool] = None,
                 drain_timeout: float = DRAIN_TIMEOUT) -> None:
        if procs < 1:
            raise FleetError(f"procs must be >= 1, got {procs}")
        specs = []
        for item in dictionaries:
            if isinstance(item, str):
                from .cli import parse_dictionary_specs
                specs.extend(parse_dictionary_specs([item]))
            else:
                name, path = item
                specs.append((str(name), str(path)))
        if not specs:
            raise FleetError("fleet needs at least one dictionary")
        names = [name for name, _ in specs]
        if default is not None and default not in names:
            raise RegistryError(
                f"default {default!r} names no registered dictionary")
        self.specs = specs
        self.procs = procs
        self.host = host
        self.port = port
        self.top_k = top_k
        self.default = default if default is not None else names[0]
        self.lazy = lazy
        self.db_path = str(db_path) if db_path else None
        self.verbose = verbose
        self.drain_timeout = drain_timeout
        self.reuseport = reuseport_available() if reuseport is None \
            else reuseport
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:
            self._ctx = mp.get_context("spawn")
            if not self.reuseport:
                raise FleetError(
                    "this platform supports neither SO_REUSEPORT "
                    "nor forked listener inheritance")
        self.address: Optional[Tuple[str, int]] = None
        self._placeholder: Optional[socket.socket] = None
        self._listener: Optional[socket.socket] = None
        self._workers: List[_Worker] = []
        self._workers_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._history: List[Tuple[str, Optional[str]]] = []
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._restarts_total = 0
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind the shared port, spawn the workers, begin
        supervising.  Returns the (host, port) actually bound."""
        if self.address is not None:
            raise FleetError("fleet already started")
        if self.reuseport:
            # a bound (never listening) placeholder pins the port:
            # restarts re-bind it even if every worker is down, and
            # an ephemeral port (0) resolves before any fork
            self._placeholder = _reuseport_socket(
                (self.host, self.port))
            self.address = self._placeholder.getsockname()[:2]
        else:
            listener = socket.socket(socket.AF_INET,
                                     socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
            self._listener = listener
            self.address = listener.getsockname()[:2]
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        try:
            for index in range(self.procs):
                worker = self._spawn(index, restarts=0)
                with self._workers_lock:
                    self._workers.append(worker)
        except BaseException:
            self.stop(graceful=False)
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor",
            daemon=True)
        self._monitor.start()
        return self.address

    def _spawn(self, index: int, restarts: int) -> _Worker:
        # snapshot the reload history under the reload lock: a
        # worker restarting mid-reload must replay the version the
        # fleet is converging on, not the one before it
        with self._reload_lock:
            history = list(self._history)
        config = WorkerConfig(
            index=index, address=self.address,
            dictionaries=list(self.specs), default=self.default,
            top_k=self.top_k, lazy=self.lazy, db_path=self.db_path,
            verbose=self.verbose, reuseport=self.reuseport,
            history=history,
            drain_timeout=self.drain_timeout)
        cmd_parent, cmd_child = self._ctx.Pipe()
        fwd_parent, fwd_child = self._ctx.Pipe()
        listener = self._listener if not self.reuseport else None
        # forked children inherit the supervisor-side pipe ends — the
        # new channel's and every live sibling's.  Hand the child its
        # inherited copies to close, so the only holder of a worker's
        # parent ends is the supervisor and EOF fires the moment it
        # dies.  (The spawn context re-pickles only what is passed,
        # so there is nothing stray to close there.)
        close_conns: List = []
        if self._ctx.get_start_method() == "fork":
            close_conns = [cmd_parent, fwd_parent]
            with self._workers_lock:
                for other in self._workers:
                    close_conns.extend(
                        (other.cmd_conn, other.fwd_conn))
        process = self._ctx.Process(
            target=_worker_main,
            args=(config, cmd_child, fwd_child, listener,
                  close_conns),
            name=f"diagnosis-fleet-{index}", daemon=True)
        process.start()
        cmd_child.close()
        fwd_child.close()
        if not fwd_parent.poll(READY_TIMEOUT):
            process.terminate()
            raise FleetError(
                f"worker {index} did not report ready within "
                f"{READY_TIMEOUT:.0f}s")
        hello = fwd_parent.recv()
        if hello.get("op") != "ready":
            process.join(timeout=5.0)
            raise FleetError(
                f"worker {index} failed to start: "
                f"{hello.get('error', hello)}")
        worker = _Worker(index, process, cmd_parent, fwd_parent,
                         pid=hello["pid"], restarts=restarts)
        threading.Thread(
            target=self._forward_loop, args=(worker,),
            name=f"fleet-forward-{index}", daemon=True).start()
        return worker

    def _monitor_loop(self) -> None:
        """Restart crashed workers with exponential backoff."""
        while not self._stopping.wait(0.1):
            with self._workers_lock:
                workers = list(self._workers)
            for worker in workers:
                if worker.process.is_alive() or \
                        self._stopping.is_set():
                    continue
                restarts = worker.restarts + 1
                if time.monotonic() - worker.spawned_monotonic > \
                        BACKOFF_RESET:
                    restarts = 1
                backoff = min(BACKOFF_CAP,
                              BACKOFF_BASE * 2 ** (restarts - 1))
                if self._stopping.wait(backoff):
                    return
                worker.close()
                try:
                    replacement = self._spawn(worker.index,
                                              restarts=restarts)
                except FleetError:
                    # spawn failed; leave the dead worker in place —
                    # the next monitor pass retries with more backoff
                    worker.restarts = restarts
                    worker.spawned_monotonic = time.monotonic()
                    continue
                self._restarts_total += 1
                with self._workers_lock:
                    try:
                        at = self._workers.index(worker)
                    except ValueError:
                        replacement.process.terminate()
                        continue
                    self._workers[at] = replacement

    def stop(self, graceful: bool = True,
             timeout: float = 30.0) -> None:
        """Stop the fleet: drain (when graceful), then reap."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=BACKOFF_CAP + 5.0)
        with self._workers_lock:
            workers = list(self._workers)
            self._workers = []
        if graceful and workers:
            # a drained worker's serve_forever() returns, so the
            # process exits on its own and the join below is quick
            drainers = [
                threading.Thread(
                    target=self._command,
                    args=(w, {"op": "drain"}),
                    kwargs={"timeout": self.drain_timeout + 5.0},
                    daemon=True)
                for w in workers if w.process.is_alive()]
            for t in drainers:
                t.start()
            for t in drainers:
                t.join(timeout=self.drain_timeout + 5.0)
        else:
            for worker in workers:
                if worker.process.is_alive():
                    worker.process.terminate()
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
            worker.close()
        for sock in (self._placeholder, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._placeholder = self._listener = None
        self._stopped.set()

    def run_forever(self) -> None:
        """Block until SIGTERM/SIGINT, then drain and stop (the CLI's
        foreground mode)."""
        def _on_signal(signum, frame):
            threading.Thread(target=self.stop, daemon=True).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self._stopped.wait()

    # -- control-channel operations ----------------------------------------

    def _live_workers(self) -> List[_Worker]:
        with self._workers_lock:
            return [w for w in self._workers
                    if w.process.is_alive()]

    def _command(self, worker: _Worker, msg: Dict,
                 timeout: float = COMMAND_TIMEOUT) -> Optional[Dict]:
        with worker.cmd_lock:
            try:
                worker.cmd_conn.send(msg)
                if not worker.cmd_conn.poll(timeout):
                    return None
                return worker.cmd_conn.recv()
            except (EOFError, OSError):
                return None

    def reload(self, name: str,
               source: Optional[str] = None) -> Dict:
        """Coordinated fleet-wide build→validate→swap.

        The first worker validates the replacement: if it refuses
        (bad file, empty dictionary) the reload aborts with the
        fleet untouched.  Once one worker has swapped, the rest
        must follow — a worker that fails or is unreachable at that
        point is terminated so the supervisor restarts it with the
        reload history replayed, keeping the fleet coherent.
        """
        with self._reload_lock:
            workers = self._live_workers()
            if not workers:
                raise ApiError("no live fleet workers", status=503,
                               code="fleet_unavailable")
            msg = {"op": "reload", "name": name, "source": source}
            first = self._command(workers[0], msg)
            if first is None:
                raise ApiError(
                    "fleet worker did not answer the reload",
                    status=503, code="fleet_unavailable")
            if not first.get("ok"):
                raise ApiError(first.get("message", "reload failed"),
                               status=first.get("status", 409),
                               code=first.get("code",
                                              "reload_failed"))
            self._history.append((name, source))
            applied = [first]
            restarted = 0
            for worker in workers[1:]:
                reply = self._command(worker, msg)
                if reply is not None and reply.get("ok"):
                    applied.append(reply)
                    continue
                # past the point of no return: evict the laggard so
                # its restart replays the history
                worker.process.terminate()
                restarted += 1
            version = max(r["version"] for r in applied)
            return {"reloaded": True, "name": name,
                    "version": version,
                    "classes": applied[0]["classes"],
                    "fleet": {"workers": len(applied),
                              "restarted": restarted}}

    def metrics(self) -> Dict:
        """Aggregate every worker's counters into one payload."""
        per_worker = []
        replies = []
        for worker in self._live_workers():
            reply = self._command(worker, {"op": "metrics"})
            if reply is None or not reply.get("ok"):
                continue
            payload = reply["payload"]
            replies.append(payload)
            per_worker.append({
                "pid": reply.get("pid"),
                "index": worker.index,
                "restarts": worker.restarts,
                "uptime": payload.get("uptime"),
                "responses": sum(
                    payload.get("responses", {}).values()),
            })
        aggregate = aggregate_metrics(replies)
        aggregate["uptime"] = \
            time.monotonic() - self._started_monotonic
        aggregate["started_at"] = self._started_at
        aggregate["fleet"] = {
            "procs": self.procs,
            "workers": len(replies),
            "restarts": self._restarts_total,
            "reuseport": self.reuseport,
            "per_worker": per_worker,
        }
        return aggregate

    # -- introspection (tests, benchmarks) ----------------------------------

    def worker_pids(self) -> List[int]:
        return [w.pid for w in self._live_workers()]

    def versions(self, name: str) -> List[int]:
        """The dictionary's version on every live worker (coherence
        check: all equal once a reload settles)."""
        out = []
        for worker in self._live_workers():
            reply = self._command(worker, {"op": "describe"})
            if reply is not None and reply.get("ok"):
                out.append(reply["versions"].get(name, 0))
        return out

    # -- forwarded requests -------------------------------------------------

    def _forward_loop(self, worker: _Worker) -> None:
        """Answer fleet-wide requests originating from one worker's
        HTTP handlers (its server.controller forwards them here)."""
        while True:
            try:
                msg = worker.fwd_conn.recv()
            except (EOFError, OSError):
                return
            op = msg.get("op")
            try:
                if op == "reload":
                    payload = self.reload(msg["name"],
                                          msg.get("source"))
                elif op == "metrics":
                    payload = self.metrics()
                else:
                    raise ApiError(
                        f"unknown forwarded op {op!r}", status=500,
                        code="internal")
                reply = {"ok": True, "payload": payload}
            except ApiError as exc:
                reply = {"ok": False, "status": exc.status,
                         "code": exc.code, "message": str(exc)}
            except Exception as exc:
                reply = {"ok": False, "status": 500,
                         "code": "internal",
                         "message": f"{type(exc).__name__}: {exc}"}
            # echo the request id so the worker's controller can
            # discard replies to calls it has already timed out
            reply["id"] = msg.get("id")
            try:
                worker.fwd_conn.send(reply)
            except (BrokenPipeError, OSError):
                return

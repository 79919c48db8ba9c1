"""Dependency-aware parallel task execution with failure containment.

A :class:`TaskGraph` holds named tasks with explicit dependencies and
runs them in this process (``jobs<=1``, one at a time in a
deterministic order) or on a supervised worker pool (``jobs>1``),
always respecting the dependency edges.  Independent chains — e.g. the
per-application trace → baseline → profile → train pipelines of the
experiment suite — execute concurrently, which is what lets
``repro run-all`` scale with cores.

Every run goes through a pluggable :class:`ExecutionBackend` seam: one
backend-agnostic drain loop (launch while the backend has capacity,
wait for :class:`Completion`\\ s, enforce deadlines, retry failures)
serves the in-process backend (:class:`InProcessBackend`), the local
process pool (:class:`LocalPoolBackend`) and the cluster coordinator
(:class:`repro.cluster.coordinator.ClusterBackend`), so retries,
skips, fail-fast drains, stops and resumes behave the same everywhere.

Tasks communicate through side effects on the shared artifact store,
not through their return values; returns are kept small (stats dicts)
because they cross a process boundary.

Failure containment (the run must survive its workers):

* With ``jobs>1`` each task attempt runs in its **own supervised
  process** — the parent watches the result pipe, so a worker that dies
  (segfault, OOM kill, injected ``crash_task``) is detected immediately
  and surfaces as a typed :class:`WorkerDied` naming the task and
  attempt, never an opaque ``BrokenProcessPool`` traceback.
* A :class:`RetryPolicy` gives every task **bounded retries with
  exponential backoff plus deterministic jitter** and, on the pool and
  the cluster, a **per-attempt timeout** (hung workers are terminated
  and the task reclaimed).  An in-process attempt cannot be
  interrupted, so ``jobs<=1`` does not enforce the timeout.
* A failed task fails alone: with ``keep_going`` (the default) its
  transitive dependents are marked ``skipped`` and everything else
  keeps running; with ``keep_going=False`` the scheduler drains
  in-flight work and marks the rest ``cancelled``.
* A ``stop_event`` (wired to SIGINT/SIGTERM by ``run-all``) drains the
  same way, so an interrupted run leaves a complete, resumable record.
* ``completed`` names tasks already finished by a previous run
  (journal-driven resume): they satisfy dependencies without executing.

Every execution produces a list of :class:`TaskRecord`\\ s — per-task
wall time, worker pid, status, attempts, error.  The drain loop keeps
one record per task from the moment it is ready, and
:meth:`TaskRecord.as_dict` is its one serialized form: the ``task``
trace event, the journal line (:mod:`repro.orchestrator.journal`) and
the manifest entry (:mod:`repro.orchestrator.manifest`).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field, fields
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from . import faults

#: Task lifecycle states recorded in the manifest.
DONE = "done"
FAILED = "failed"
SKIPPED = "skipped"
#: Never started because the run was aborted (fail-fast) or interrupted.
CANCELLED = "cancelled"

#: How long the supervisor sleeps between liveness/deadline checks; also
#: bounds how quickly a stop request is noticed.
_POLL_SECONDS = 0.2


class WorkerDied(RuntimeError):
    """A worker process exited without delivering its task's result.

    The typed replacement for the opaque ``BrokenProcessPool`` traceback
    the pool used to surface: it names the task, the attempt, and the
    worker's exit code, so retries and manifests can report precisely
    what happened.
    """

    def __init__(self, task: str, attempt: int, exitcode: Optional[int]) -> None:
        self.task = task
        self.attempt = attempt
        self.exitcode = exitcode
        super().__init__(
            f"worker running task {task!r} died on attempt {attempt} "
            f"(exit code {exitcode})"
        )


class TaskTimeout(RuntimeError):
    """A task attempt exceeded the policy's per-task timeout."""

    def __init__(self, task: str, attempt: int, timeout: float) -> None:
        self.task = task
        self.attempt = attempt
        self.timeout = timeout
        super().__init__(
            f"task {task!r} timed out after {timeout:.1f}s on attempt {attempt}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the scheduler fights for each task.

    ``retries`` is the number of *extra* attempts after the first;
    backoff grows geometrically and is stretched by a deterministic
    jitter (hashed from task name and attempt — reproducible, but
    decorrelated across tasks so a thundering herd of retries spreads
    out).
    """

    retries: int = 0
    timeout: Optional[float] = None  # per-attempt seconds; None = unbounded
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 10.0
    jitter: float = 0.25  # fraction of the base delay

    def delay(self, task: str, attempt: int) -> float:
        """Backoff before retrying ``task`` after failed ``attempt``."""
        base = min(
            self.backoff * self.backoff_factor ** (attempt - 1), self.max_backoff
        )
        return base * (1.0 + self.jitter * faults._unit_hash("backoff", task, attempt))


@dataclass
class TaskSpec:
    """One schedulable unit: a picklable function plus its arguments.

    ``payload`` is an optional wire-format description of the task (a
    small JSON-safe dict) for backends that cannot ship ``fn``/``args``
    across machines: the cluster coordinator sends the payload and the
    remote worker rebuilds the callable from it.
    """

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    deps: Tuple[str, ...] = ()
    kind: str = ""
    app: str = ""
    payload: Optional[dict] = None


@dataclass
class TaskRecord:
    """What happened to one task.

    The drain loop keeps one record per task from the moment the task is
    ready; attempts, worker deaths, timeouts, the ready/started/finished
    offsets and the result accumulate on it until its status is decided.
    """

    name: str
    kind: str = ""
    app: str = ""
    #: "" while the task is live, then done / failed / skipped / cancelled.
    status: str = ""
    seconds: float = 0.0
    cpu: float = 0.0
    ready: float = 0.0  # offset when all dependencies were decided
    started: float = 0.0  # offset from graph start of the last attempt
    finished: float = 0.0
    worker: int = 0  # pid that executed the task
    #: Cluster worker that executed the task ("" for local execution).
    worker_id: str = ""
    error: str = ""
    #: Execution attempts made (0 for skipped/cancelled/resumed tasks).
    attempts: int = 0
    #: Attempts lost to a dead worker process.
    worker_deaths: int = 0
    #: Attempts lost to the per-task timeout.
    timeouts: int = 0
    #: Satisfied from a previous run's journal without executing.
    resumed: bool = False
    result: Any = field(default=None, repr=False)

    def as_dict(self) -> dict:
        """The record's one serialized form — journal line, ``task``
        trace event and manifest entry: every field but ``result``, with
        floats rounded to 4 digits."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            name: round(value, 4) if isinstance(value, float) else value
            for name, value in values
            if name != "result"
        }


def _run_task(
    fn: Callable[..., Any], args: Tuple[Any, ...], name: str = ""
) -> Tuple[Any, float, float, int]:
    """Task-side wrapper: fault hook, wall + CPU time, and the pid."""
    injector = faults.active()
    if injector is not None:
        injector.on_task_start(name)
    cpu0 = time.process_time()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, time.process_time() - cpu0, os.getpid()


def _worker_entry(conn, name: str, fn, args, attempt: int) -> None:
    """Entry point of one supervised worker process.

    Ships ``("ok", payload)`` or ``("error", traceback)`` back through
    the pipe; a worker that dies before sending anything is detected by
    the parent as EOF on the pipe (→ :class:`WorkerDied`).
    """
    faults.enter_worker(attempt)
    try:
        outcome = ("ok", _run_task(fn, args, name))
    except BaseException:
        outcome = ("error", traceback.format_exc())
    try:
        conn.send(outcome)
    except (BrokenPipeError, OSError):  # parent gone; nothing to report to
        pass
    finally:
        conn.close()


@dataclass
class Completion:
    """One finished task attempt, as reported by an execution backend.

    ``outcome`` is ``"ok"`` (result delivered), ``"error"`` (the task
    function raised; ``error`` holds the traceback) or ``"died"`` (the
    executing process/worker vanished before delivering a result —
    pipe EOF locally, an expired lease on the cluster).
    """

    handle: Any
    outcome: str
    result: Any = None
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    worker: int = 0  # executing pid (0 if unknown)
    worker_id: str = ""  # cluster worker id ("" for local)
    error: str = ""
    exitcode: Optional[int] = None


class ExecutionBackend:
    """Where task attempts actually execute — the scheduler's seam.

    The drain loop in :meth:`TaskGraph._run_backend` is backend-agnostic:
    it launches ready tasks while the backend reports capacity, collects
    :class:`Completion`\\ s, enforces per-attempt deadlines by cancelling
    handles, and routes failures through the retry policy.
    Implementations decide *where* an attempt runs:
    :class:`InProcessBackend` runs it in this process;
    :class:`LocalPoolBackend` supervises one local process per attempt;
    :class:`repro.cluster.coordinator.ClusterBackend` leases tasks to
    remote workers over TCP.  Handles are opaque to the loop — it only
    stores them, keys bookkeeping by ``id(handle)``, and passes them
    back to :meth:`cancel`.
    """

    #: Short backend name, recorded in manifests and journals.
    name = "backend"

    def has_capacity(self) -> bool:
        """Whether the drain loop may launch another task right now."""
        raise NotImplementedError

    def launch(self, spec: TaskSpec, attempt: int) -> Any:
        """Start one attempt of ``spec``; returns an opaque handle."""
        raise NotImplementedError

    def wait(self, timeout: float) -> List[Completion]:
        """Completions that arrived within ``timeout`` seconds (may be
        empty; must not block longer than ``timeout``)."""
        raise NotImplementedError

    def cancel(self, handle: Any) -> None:
        """Abort one launched attempt; no completion is delivered for
        it afterwards (a racing one is ignored by the loop)."""
        raise NotImplementedError

    def drain(self) -> List[Any]:
        """Hand back launched-but-not-yet-executing handles.

        Called when the run starts draining (failure under fail-fast,
        or a stop request).  Backends with an assignment queue — the
        cluster — return handles no worker has picked up yet, so the
        drain does not wait on work that will never start; attempts
        already in flight are unaffected.
        """
        return []

    def close(self) -> None:
        """Release backend resources (processes, sockets, threads)."""


class InProcessBackend(ExecutionBackend):
    """Attempts run in this process, one at a time (``jobs <= 1``).

    :meth:`launch` holds the attempt and :meth:`wait` runs it, so the
    loop stamps its start first.  A raising attempt (an injected
    ``crash_task`` too) is an ``error`` completion and is retried; a
    running attempt cannot be interrupted, so timeouts are not enforced.
    """

    name = "inline"

    def __init__(self) -> None:
        self._held: Optional[Tuple[dict, TaskSpec, int]] = None

    def has_capacity(self) -> bool:
        """True while no attempt is waiting to run."""
        return self._held is None

    def launch(self, spec: TaskSpec, attempt: int) -> Any:
        """Hold the attempt; the next :meth:`wait` runs it."""
        handle = {"name": spec.name}
        self._held = (handle, spec, attempt)
        return handle

    def wait(self, timeout: float) -> List[Completion]:
        """Run the held attempt to completion, whatever ``timeout`` says."""
        if self._held is None:
            return []
        (handle, spec, attempt), self._held = self._held, None
        faults.set_attempt(attempt)
        try:
            result, seconds, cpu, pid = _run_task(spec.fn, spec.args, spec.name)
        except Exception:
            return [Completion(handle, "error", error=traceback.format_exc())]
        finally:
            faults.set_attempt(1)
        return [Completion(handle, "ok", result, seconds, cpu, worker=pid)]

    def cancel(self, handle: Any) -> None:
        """Drop the held attempt (a running one cannot be stopped)."""
        if self._held is not None and self._held[0] is handle:
            self._held = None


class LocalPoolBackend(ExecutionBackend):
    """One supervised local process per task attempt (``jobs > 1``).

    The pre-seam behaviour, verbatim: result pipes are multiplexed with
    :func:`multiprocessing.connection.wait`, EOF on a pipe means the
    worker died, and :meth:`cancel` terminates the process (the
    deadline-sweep path for hung workers).
    """

    name = "local"

    def __init__(self, jobs: int) -> None:
        # Forked attempts inherit these instead of each importing them on
        # first use: numpy.random on a task's first default_rng, numpy.ma
        # (~17 ms) on its first np.unique or np.isin.
        import numpy.ma  # noqa: F401
        import numpy.random  # noqa: F401

        self.jobs = max(1, int(jobs))
        self._mp = multiprocessing.get_context()
        self._running: Dict[Any, dict] = {}  # conn -> handle

    def has_capacity(self) -> bool:
        """True while fewer than ``jobs`` processes are running."""
        return len(self._running) < self.jobs

    def launch(self, spec: TaskSpec, attempt: int) -> Any:
        """Fork one supervised process for this attempt."""
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_worker_entry,
            args=(child_conn, spec.name, spec.fn, spec.args, attempt),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = {"name": spec.name, "proc": proc, "conn": parent_conn}
        self._running[parent_conn] = handle
        return handle

    def wait(self, timeout: float) -> List[Completion]:
        """Multiplex result pipes; EOF on a pipe → ``died``."""
        if not self._running:
            if timeout > 0:
                time.sleep(timeout)
            return []
        completions: List[Completion] = []
        for conn in _connection_wait(list(self._running), timeout=timeout):
            handle = self._running.pop(conn)
            proc = handle["proc"]
            try:
                outcome, payload = conn.recv()
            except (EOFError, OSError):
                outcome, payload = "died", None
            finally:
                conn.close()
            proc.join(timeout=5.0)
            if outcome == "ok":
                result, seconds, cpu_seconds, pid = payload
                completions.append(Completion(
                    handle=handle, outcome="ok", result=result,
                    seconds=seconds, cpu_seconds=cpu_seconds, worker=pid,
                ))
            elif outcome == "error":
                completions.append(
                    Completion(handle=handle, outcome="error", error=payload)
                )
            else:
                completions.append(Completion(
                    handle=handle, outcome="died", exitcode=proc.exitcode,
                ))
        return completions

    def cancel(self, handle: Any) -> None:
        """Terminate the attempt's process (hung-worker reclamation)."""
        conn = handle["conn"]
        if self._running.pop(conn, None) is None:
            return
        handle["proc"].terminate()
        handle["proc"].join(timeout=5.0)
        conn.close()

    def close(self) -> None:
        """Terminate any processes still running — belt-and-braces."""
        for handle in list(self._running.values()):
            self.cancel(handle)


class TaskGraph:
    """A DAG of named tasks, executed in this process or across processes."""

    def __init__(self) -> None:
        self._tasks: Dict[str, TaskSpec] = {}

    def add(
        self,
        name: str,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        deps: Sequence[str] = (),
        kind: str = "",
        app: str = "",
        payload: Optional[dict] = None,
    ) -> None:
        """Register a task; ``payload`` is its wire-format description
        for remote backends (see :class:`TaskSpec`)."""
        if name in self._tasks:
            raise ValueError(f"duplicate task name {name!r}")
        self._tasks[name] = TaskSpec(
            name=name, fn=fn, args=tuple(args), deps=tuple(deps), kind=kind,
            app=app, payload=payload,
        )

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for spec in self._tasks.values():
            for dep in spec.deps:
                if dep not in self._tasks:
                    raise ValueError(f"task {spec.name!r} depends on unknown {dep!r}")
        # Kahn's algorithm purely for cycle detection.
        pending = {name: len(spec.deps) for name, spec in self._tasks.items()}
        children: Dict[str, List[str]] = {name: [] for name in self._tasks}
        for spec in self._tasks.values():
            for dep in spec.deps:
                children[dep].append(spec.name)
        frontier = [name for name, count in pending.items() if count == 0]
        visited = 0
        while frontier:
            name = frontier.pop()
            visited += 1
            for child in children[name]:
                pending[child] -= 1
                if pending[child] == 0:
                    frontier.append(child)
        if visited != len(self._tasks):
            cyclic = sorted(name for name, count in pending.items() if count > 0)
            raise ValueError(f"dependency cycle among tasks: {cyclic}")

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: int = 1,
        log: Optional[Callable[[str], None]] = None,
        policy: Optional[RetryPolicy] = None,
        keep_going: bool = True,
        completed: Sequence[str] = (),
        stop_event: Optional[threading.Event] = None,
        on_record: Optional[Callable[[TaskRecord], None]] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> List[TaskRecord]:
        """Execute every task; returns records in completion order.

        ``completed`` tasks (a resumed run's journal) are pre-satisfied:
        they appear as resumed DONE records with zero cost and their
        dependents run normally.  ``on_record`` is invoked once per
        *newly decided* task (the journaling hook).  ``stop_event``
        requests a drain: no new tasks start, in-flight ones finish
        (bounded by the policy timeout), the rest become ``cancelled``.

        ``backend`` overrides process selection entirely: the graph
        drains through the given :class:`ExecutionBackend` (the cluster
        coordinator passes itself here) and ``jobs`` is ignored.  The
        caller owns a passed-in backend's lifecycle; the backend created
        internally — in-process for ``jobs <= 1``, the process pool
        otherwise — is closed before returning.
        """
        self._validate()
        policy = policy or RetryPolicy()
        resumed = [name for name in completed if name in self._tasks]
        if backend is not None:
            return self._run_backend(
                backend, log, policy, keep_going, resumed, stop_event, on_record
            )
        own = InProcessBackend() if jobs <= 1 else LocalPoolBackend(jobs)
        try:
            return self._run_backend(
                own, log, policy, keep_going, resumed, stop_event, on_record
            )
        finally:
            own.close()

    # ------------------------------------------------------------------
    def _log(self, log, done: int, total: int, record: TaskRecord) -> None:
        if log is None:
            return
        if record.status == DONE:
            suffix = " (resumed)" if record.resumed else f" ({record.seconds:.1f}s)"
            retried = f" [attempt {record.attempts}]" if record.attempts > 1 else ""
            log(f"[{done}/{total}] {record.name}{suffix}{retried}")
        else:
            log(f"[{done}/{total}] {record.name} {record.status.upper()}"
                + (f": {record.error.splitlines()[-1]}" if record.error else ""))

    @staticmethod
    def _note_retry(
        log, name: str, attempt: int, policy: RetryPolicy, reason: str, delay: float
    ) -> None:
        """Shared retry accounting: counters, trace event, console line."""
        obs.add("scheduler.retries")
        obs.event("retry", task=name, attempt=attempt, delay=round(delay, 4),
                  reason=reason.splitlines()[-1][:200] if reason else "")
        if log is not None:
            log(f"retrying {name} (attempt {attempt + 1}/{policy.retries + 1}, "
                f"backoff {delay:.2f}s): {reason.splitlines()[-1] if reason else '?'}")

    # ------------------------------------------------------------------
    def _run_backend(
        self, backend: ExecutionBackend, log, policy: RetryPolicy,
        keep_going: bool, resumed: Sequence[str], stop_event, on_record,
    ) -> List[TaskRecord]:
        """The one drain loop, for every :class:`ExecutionBackend`.

        One launch per task attempt: the loop collects completions,
        enforces per-attempt deadlines (cancelling hung attempts), turns
        ``died`` completions into :class:`WorkerDied`, and schedules
        retries from a backoff heap.  Ready tasks launch first in,
        first out, so with :class:`InProcessBackend` the run order is
        deterministic; :class:`LocalPoolBackend` makes it the
        supervised process pool, and the cluster backend drives remote
        workers.  Each task's state lives on its one
        :class:`TaskRecord`, opened when the task is ready.
        """
        t0 = time.perf_counter()

        def now() -> float:
            return time.perf_counter() - t0

        records: Dict[str, TaskRecord] = {}  # every ready or decided task
        decided: List[TaskRecord] = []  # completion order
        pending = {name: len(spec.deps) for name, spec in self._tasks.items()}
        children: Dict[str, List[str]] = {name: [] for name in self._tasks}
        for spec in self._tasks.values():
            for dep in spec.deps:
                children[dep].append(spec.name)

        timeout = policy.timeout
        retry_heap: List[Tuple[float, str]] = []  # (due offset, task)
        # id(handle) -> (handle, record); handles are backend-opaque (and
        # possibly unhashable), hence the id() key.
        outstanding: Dict[int, Tuple[Any, TaskRecord]] = {}
        halted = False

        def open_record(name: str, ready: float) -> TaskRecord:
            spec = self._tasks[name]
            record = TaskRecord(name=name, kind=spec.kind, app=spec.app, ready=ready)
            records[name] = record
            return record

        def decide(record: TaskRecord, status: str, error: str = "") -> None:
            """Commit one task's final record: trace event, journal hook,
            progress line.  A failure under fail-fast starts the drain."""
            nonlocal halted
            record.status, record.error = status, error
            decided.append(record)
            obs.event("task", **record.as_dict(), deps=list(self._tasks[record.name].deps))
            if on_record is not None:
                on_record(record)
            self._log(log, len(decided), len(self._tasks), record)
            if status == FAILED and not keep_going:
                halted = True

        def settle(name: str) -> None:
            """Resolve the children of a decided task: queue those whose
            dependencies all succeeded, skip (with their subtrees) those
            with a failed one."""
            for child in children[name]:
                pending[child] -= 1
                # A journal-satisfied child already has its record and only
                # consumes the edge; re-queueing it would double-settle its
                # own children.
                if pending[child] != 0 or child in records:
                    continue
                record = open_record(child, now())
                if any(records[dep].status != DONE for dep in self._tasks[child].deps):
                    record.started = record.finished = record.ready
                    decide(record, SKIPPED, "dependency failed")
                    settle(child)
                else:
                    ready.append(child)

        def launch(name: str) -> None:
            record = records[name]
            record.attempts += 1
            handle = backend.launch(self._tasks[name], record.attempts)
            record.started = now()
            outstanding[id(handle)] = (handle, record)

        def handle_failure(record: TaskRecord, error: str, reason: str) -> None:
            """Retry the attempt if the policy allows, else fail the task."""
            draining = halted or (stop_event is not None and stop_event.is_set())
            if record.attempts <= policy.retries and not draining:
                delay = policy.delay(record.name, record.attempts)
                heapq.heappush(retry_heap, (now() + delay, record.name))
                self._note_retry(log, record.name, record.attempts, policy, reason, delay)
                return
            record.finished = now()
            decide(record, FAILED, error)
            settle(record.name)

        # Journal-satisfied tasks decide immediately (zero-cost, no trace
        # event or journal line) and release their children.
        for name in resumed:
            record = open_record(name, 0.0)
            record.status, record.resumed = DONE, True
            decided.append(record)
            self._log(log, len(decided), len(self._tasks), record)
        ready: List[str] = [
            name for name, count in pending.items()
            if count == 0 and name not in records
        ]
        for name in ready:
            open_record(name, 0.0)
        for name in resumed:
            settle(name)

        try:
            while ready or outstanding or retry_heap:
                draining = halted or (
                    stop_event is not None and stop_event.is_set()
                )
                if draining:
                    # Reclaim launched-but-unstarted work (cluster queue)
                    # so the drain only waits on attempts in flight.
                    for handle in backend.drain():
                        outstanding.pop(id(handle), None)
                    if not outstanding:
                        break
                if not draining:
                    while retry_heap and retry_heap[0][0] <= now():
                        _, name = heapq.heappop(retry_heap)
                        ready.insert(0, name)
                    while ready and backend.has_capacity():
                        launch(ready.pop(0))
                if not outstanding:
                    if retry_heap:
                        time.sleep(
                            min(_POLL_SECONDS, max(0.0, retry_heap[0][0] - now()))
                        )
                    elif ready:
                        time.sleep(_POLL_SECONDS)  # backend at capacity
                    continue
                wait_for = _POLL_SECONDS
                if timeout is not None:
                    for _, record in outstanding.values():
                        wait_for = min(wait_for, max(0.0, record.started + timeout - now()))
                if retry_heap and not draining:
                    wait_for = min(wait_for, max(0.0, retry_heap[0][0] - now()))
                for completion in backend.wait(wait_for):
                    entry = outstanding.pop(id(completion.handle), None)
                    if entry is None:  # completion raced a cancellation
                        continue
                    record = entry[1]
                    if completion.outcome == "ok":
                        record.result = completion.result
                        record.seconds = completion.seconds
                        record.cpu = completion.cpu_seconds
                        record.worker = completion.worker
                        record.worker_id = completion.worker_id
                        record.finished = now()
                        decide(record, DONE)
                        settle(record.name)
                    elif completion.outcome == "error":
                        handle_failure(record, completion.error, completion.error)
                    else:
                        record.worker_deaths += 1
                        obs.add("scheduler.worker_deaths")
                        died = WorkerDied(record.name, record.attempts, completion.exitcode)
                        message = completion.error or str(died)
                        obs.event(
                            "worker_died", task=record.name, attempt=record.attempts,
                            exitcode=completion.exitcode,
                            worker_id=completion.worker_id,
                        )
                        handle_failure(
                            record, f"{type(died).__name__}: {message}", message
                        )
                # Deadline sweep: cancel and reclaim hung attempts.
                for key, (handle, record) in list(outstanding.items()):
                    if timeout is None or now() <= record.started + timeout:
                        continue
                    del outstanding[key]
                    backend.cancel(handle)
                    record.timeouts += 1
                    obs.add("scheduler.timeouts")
                    timeout_error = TaskTimeout(record.name, record.attempts, timeout)
                    obs.event(
                        "task_timeout", task=record.name, attempt=record.attempts,
                        timeout=timeout,
                    )
                    handle_failure(
                        record, f"{type(timeout_error).__name__}: {timeout_error}",
                        str(timeout_error),
                    )
        finally:
            # Belt-and-braces: no attempt outlives the supervisor.
            for handle, _ in outstanding.values():
                backend.cancel(handle)

        # Whatever was never decided — queued behind the stop, waiting on
        # a retry that will not happen, or downstream of it all — is
        # cancelled, recorded, and journaled so a resume can pick it up.
        interrupted = stop_event is not None and stop_event.is_set()
        reason = "interrupted" if interrupted else "aborted after failure"
        for name in self._tasks:
            record = records.get(name) or open_record(name, now())
            if record.status:
                continue
            record.started = record.finished = now()
            decide(record, CANCELLED, reason)
        return decided

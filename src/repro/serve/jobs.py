"""Job queue and worker pool for the inference service.

The scheduler runs submitted modules through the exact experiment pipeline
sweeps use: every job becomes an
:class:`~repro.experiments.runner.ExperimentTask`, executes in its own
worker process via the :class:`~repro.experiments.parallel.WorkerHandle`
lifecycle (same payload protocol, same hard-timeout and dead-worker
semantics as the :class:`~repro.experiments.parallel.ParallelRunner`), and
lands as an ``InferenceResult.to_dict()`` row in an append-only
:class:`~repro.experiments.store.ResultStore`.

Three service-specific behaviours sit on top:

* **Dedup against the store.**  A job's resume key is the store's own
  ``(benchmark, mode, pack, variant)`` scheme with ``pack="serve"`` and
  ``variant=`` the module's canonical content hash, so re-submitting an
  identical (even just alpha-equivalent) module answers from the store
  without running anything - while a same-named module with *different*
  content gets a different variant and runs.  (``force=True`` bypasses
  the check; the row it produces supersedes the old one.)

* **Retries on worker crash.**  A worker that dies without delivering a
  payload is re-queued up to ``max_retries`` times; a worker that exceeds
  its hard budget is killed and recorded as a timeout (retrying it would
  time out again).

* **Event streaming.**  Each worker streams its structured trace records
  over a per-job queue (the parallel runner's ``QueueSink`` transport); the
  scheduler drains them into a per-job
  :class:`~repro.obs.sinks.RingBufferSink` that the HTTP layer long-polls.

State lives under one directory: ``results.jsonl`` (the store),
``modules/`` (one pack directory per distinct module content, which is what
workers register), and - when persistence is enabled - ``cache/`` (the
:mod:`repro.serve.diskcache` store threaded into every job's config).
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.canon import canonical_hash
from ..core.config import HanoiConfig
from ..core.result import InferenceResult, Status
from ..experiments.parallel import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_TIMEOUT_GRACE,
    WorkerHandle,
    _default_context,
    _result_payload,
)
from ..experiments.runner import MODES, ExperimentTask
from ..experiments.store import ResultStore
from ..obs.sinks import RingBufferSink
from ..spec.errors import SpecFileError
from ..spec.loader import load_module_text
from ..suite.registry import all_benchmark_names

__all__ = ["Job", "JobScheduler", "SERVICE_PACK_TAG", "JOB_STATES"]

#: The ``pack`` tag stamped on every service result row; part of the dedup
#: key, so service rows never collide with built-in or pack sweep rows.
SERVICE_PACK_TAG = "serve"

#: queued -> running -> done | failed (failed = no result row was produced;
#: an inference that *ran* and reported timeout/failure still ends ``done``
#: with that status in its row).
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submission: a module, a mode, and its lifecycle bookkeeping."""

    id: str
    benchmark: str
    mode: str
    content_key: str
    task: ExperimentTask
    state: str = "queued"
    attempts: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    message: str = ""
    #: True when the result was answered from the store without running.
    deduplicated: bool = False
    #: The ``InferenceResult.to_dict()`` row, once the job is done.
    result: Optional[dict] = None
    events: RingBufferSink = field(default_factory=RingBufferSink)

    def to_dict(self) -> dict:
        """The JSON shape of the ``/v1/jobs`` endpoints (no result row)."""
        return {
            "id": self.id,
            "benchmark": self.benchmark,
            "mode": self.mode,
            "content_key": self.content_key,
            "state": self.state,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "message": self.message,
            "deduplicated": self.deduplicated,
            "status": (self.result or {}).get("status"),
        }


class JobScheduler:
    """A long-lived worker pool fed by :meth:`submit`.

    Thread model: HTTP handler threads call :meth:`submit` / the read
    accessors; one background scheduler thread owns worker processes and
    drives the queue.  One lock guards all job state.
    """

    def __init__(self, state_dir: str, config: Optional[HanoiConfig] = None,
                 jobs: int = 2, max_retries: int = 1,
                 cache_dir: Optional[str] = None,
                 poll_interval: float = 0.05,
                 timeout_grace: float = DEFAULT_TIMEOUT_GRACE,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 mp_context=None) -> None:
        self.state_dir = os.path.abspath(state_dir)
        self.modules_dir = os.path.join(self.state_dir, "modules")
        os.makedirs(self.modules_dir, exist_ok=True)
        base = config or HanoiConfig()
        if cache_dir is None:
            cache_dir = os.path.join(self.state_dir, "cache")
        #: The per-job config: the persistent cache tier defaults to living
        #: inside the state directory.  Pass ``cache_dir=""`` to disable
        #: persistence entirely.
        self.config = base.with_cache_dir(cache_dir or None)
        self.jobs = max(1, jobs)
        self.max_retries = max(0, max_retries)
        self.poll_interval = poll_interval
        self.timeout_grace = timeout_grace
        self.heartbeat_interval = heartbeat_interval
        self.store = ResultStore(os.path.join(self.state_dir, "results.jsonl"),
                                 pack=SERVICE_PACK_TAG)
        self._ctx = mp_context if mp_context is not None else _default_context()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._queue: List[str] = []  # job ids, FIFO
        self._live: Dict[str, tuple] = {}  # job id -> (WorkerHandle, events queue)
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-serve-scheduler")
        self._thread.start()

    # -- submission ---------------------------------------------------------

    def submit(self, text: str, mode: str = "hanoi",
               force: bool = False) -> Job:
        """Validate, dedup, and enqueue one ``.hanoi`` module submission.

        Raises :class:`~repro.spec.errors.SpecFileError` on malformed input,
        an unknown mode, or a declared name that collides with a registry
        benchmark (workers could not register the module's pack).
        """
        if mode not in MODES:
            raise SpecFileError(
                f"unknown mode {mode!r} (expected one of {', '.join(sorted(MODES))})",
                "<submission>")
        definition = load_module_text(text)
        if definition.name in all_benchmark_names():
            raise SpecFileError(
                f"declared name {definition.name!r} collides with a "
                "registered benchmark; rename the module", "<submission>")
        content_key = canonical_hash(definition)
        pack_dir = self._materialize(text, content_key)
        task = ExperimentTask(
            benchmark=definition.name,
            mode=mode,
            config=self.config,
            pack=pack_dir,
            pack_name=SERVICE_PACK_TAG,
            variant=content_key,
        )
        job = Job(
            id=uuid.uuid4().hex[:12],
            benchmark=definition.name,
            mode=mode,
            content_key=content_key,
            task=task,
        )
        stored = None if force else self._stored_result(task)
        with self._lock:
            self._jobs[job.id] = job
            if stored is not None:
                job.state = "done"
                job.deduplicated = True
                job.finished_at = time.time()
                job.message = "answered from the result store"
                job.result = stored
                job.events.close()
            else:
                self._queue.append(job.id)
                self._wakeup.notify()
        return job

    def _materialize(self, text: str, content_key: str) -> str:
        """One pack directory per distinct module content.

        The directory name embeds the content key, so an edited module gets
        a fresh pack (and a worker registering it sees no name collision
        with other submissions' packs - each worker registers only its own).
        Alpha-equivalent re-submissions reuse the existing directory.
        """
        pack_dir = os.path.join(self.modules_dir, f"m-{content_key[:16]}")
        path = os.path.join(pack_dir, "module.hanoi")
        if not os.path.exists(path):
            os.makedirs(pack_dir, exist_ok=True)
            tmp = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        return pack_dir

    def _stored_result(self, task: ExperimentTask) -> Optional[dict]:
        """The stored row matching the task's resume key, if any."""
        if task.resume_key not in self.store.completed_keys():
            return None
        for result in self.store.load():
            if (result.benchmark, result.mode, result.pack,
                    result.variant) == task.resume_key:
                return result.to_dict()
        return None

    # -- accessors ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    # -- scheduler loop -----------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping and not self._live:
                    return
                while (not self._stopping and self._queue
                       and len(self._live) < self.jobs):
                    job = self._jobs[self._queue.pop(0)]
                    self._start_job(job)
                live = dict(self._live)
            for job_id, (handle, events) in live.items():
                self._drain(job_id, events)
                self._poll(job_id, handle)
            time.sleep(self.poll_interval)

    def _start_job(self, job: Job) -> None:
        """Spawn a worker (caller holds the lock)."""
        events = self._ctx.Queue()
        handle = WorkerHandle.spawn(self._ctx, job.task, events,
                                    self.heartbeat_interval)
        job.state = "running"
        job.attempts += 1
        job.started_at = time.time()
        self._live[job.id] = (handle, events)

    def _drain(self, job_id: str, events) -> None:
        """Move queued worker records into the job's ring buffer."""
        job = self._jobs[job_id]
        while True:
            try:
                record = events.get_nowait()
            except Exception:  # Empty, or queue already closed
                return
            job.events.handle(record)

    def _budget(self, job: Job) -> Optional[float]:
        timeout = self.config.timeout_seconds
        if timeout is None:
            return None
        return timeout + self.timeout_grace

    def _poll(self, job_id: str, handle: WorkerHandle) -> None:
        job = self._jobs[job_id]
        payload = handle.poll_payload()
        if payload is not None:
            self._finish(job, handle, payload)
            return
        budget = self._budget(job)
        if budget is not None and handle.elapsed > budget:
            handle.terminate()
            payload = handle.poll_payload() or _result_payload(
                job.task, Status.TIMEOUT,
                f"killed by the pool after {handle.elapsed:.1f}s "
                f"(hard budget {budget:.1f}s)", handle.elapsed)
            self._finish(job, handle, payload)
            return
        if not handle.is_alive():
            payload = handle.poll_payload()
            if payload is not None:
                self._finish(job, handle, payload)
                return
            self._worker_died(job, handle)

    def _finish(self, job: Job, handle: WorkerHandle, payload: dict) -> None:
        result = InferenceResult.from_dict(payload)
        self.store.append(result)
        # Re-read so the row carries the store's pack tag, exactly what
        # a later dedup lookup would return.
        row = result.to_dict()
        row.setdefault("pack", SERVICE_PACK_TAG)
        self._retire(job, handle)
        job.events.close()
        # Published last: a reader that sees ``done`` also sees every event
        # and a closed buffer.
        with self._lock:
            job.finished_at = time.time()
            job.message = result.message
            job.result = row
            job.state = "done"

    def _worker_died(self, job: Job, handle: WorkerHandle) -> None:
        self._retire(job, handle)
        retry = job.attempts <= self.max_retries
        if not retry:
            job.events.close()
        with self._lock:
            if retry:
                job.message = (f"worker died with exit code {handle.exitcode}; "
                               f"retry {job.attempts}/{self.max_retries}")
                job.state = "queued"
                self._queue.append(job.id)
            else:
                job.finished_at = time.time()
                job.message = (f"worker died with exit code {handle.exitcode} "
                               f"after {job.attempts} attempts")
                job.state = "failed"

    def _retire(self, job: Job, handle: WorkerHandle) -> None:
        """Reap a finished worker and drain its last events into the job."""
        with self._lock:
            entry = self._live.pop(job.id, None)
        handle.reap()
        if entry is not None:
            self._drain(job.id, entry[1])

    # -- shutdown -----------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, kill live workers, join the scheduler."""
        with self._lock:
            self._stopping = True
            self._queue.clear()
            for handle, _ in self._live.values():
                handle.terminate()
            self._wakeup.notify_all()
        self._thread.join(timeout=timeout)
        with self._lock:
            for job_id, (handle, _) in list(self._live.items()):
                handle.reap()
                self._live.pop(job_id, None)
            for job in self._jobs.values():
                if job.state in ("queued", "running"):
                    job.state = "failed"
                    job.message = job.message or "service shut down"
                    job.events.close()

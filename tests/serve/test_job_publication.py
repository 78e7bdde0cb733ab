"""A job's terminal state is published only once its event buffer is final.

Clients poll ``job.state`` and then read the buffered events, so a job that
reads ``done`` must already hold every event its worker streamed and have
a closed buffer.  Slowing the worker reap (which the scheduler does between
the payload arriving and the final drain) widens the window in which an
early publication would be visible.
"""

import time

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.experiments.parallel import WorkerHandle
from repro.gen.modgen import generate_corpus
from repro.serve.jobs import JobScheduler

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)


def test_done_is_published_after_the_event_buffer_closes(tmp_path,
                                                          monkeypatch):
    reap = WorkerHandle.reap

    def slow_reap(self):
        time.sleep(0.5)
        reap(self)

    monkeypatch.setattr(WorkerHandle, "reap", slow_reap)
    scheduler = JobScheduler(str(tmp_path / "state"), config=CONFIG, jobs=1)
    try:
        job = scheduler.submit(generate_corpus(5, 1)[0].text)
        deadline = time.monotonic() + 120.0
        while job.state in ("queued", "running"):
            assert time.monotonic() < deadline, f"job stuck in {job.state}"
            time.sleep(0.005)
        records, cursor, closed = job.events.after(0)
        assert job.state == "done"
        assert closed and cursor == len(records)
        assert any(r.get("name") == "run-end" for r in records)
    finally:
        scheduler.close()

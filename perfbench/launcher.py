"""Serve the mining service with spans around its layer entry points.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/launcher.py --port 0 --trace-out spans.json

Before serving, the launcher wraps the public entry points of each
service layer — ``handlers.dispatch``, ``SessionRegistry.get``,
``BatchingQueue.submit``, ``QueryPool.run`` (plus the moment a pool
worker picks the job up), the ``MiningSession`` verbs,
``guards.estimate_cost``, ``planner.plan_query`` and
``sampling.approx_count_session`` — then runs the same
:func:`repro.service.http.serve` loop as ``python -m repro.service``.
Every HTTP request opens a new request id at dispatch; a fused walk's
``pool.run`` span lists every request it served under ``links``.  On
SIGINT the server drains and the spans are written to ``--trace-out``.
No file of the program changes.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import sys

from spans import Recorder

SESSION_VERBS = ("count", "match", "exists", "count_many", "match_many")


def _wrap(rec: Recorder, owner, attr: str, name: str, outermost: str = ""):
    """Replace ``owner.attr`` by a spanned call (skipped when nested in
    a span whose name starts with ``outermost``)."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if outermost and rec.current.get()[2].startswith(outermost):
            return fn(*args, **kwargs)
        with rec.span(name):
            return fn(*args, **kwargs)

    setattr(owner, attr, spanned)


def install(rec: Recorder) -> None:
    """Wrap every traced entry point (call once, before serving)."""
    from repro.core.session import MiningSession
    from repro.mining import sampling
    from repro.runtime import guards, planner
    from repro.runtime.pool import QueryPool
    from repro.service import batching, handlers
    from repro.service.registry import SessionRegistry

    dispatch = handlers.dispatch

    async def traced_dispatch(service, payload):
        verb = payload.get("verb") if isinstance(payload, dict) else None
        with rec.span("handlers.dispatch", new_request=True, verb=verb):
            return await dispatch(service, payload)

    handlers.dispatch = traced_dispatch

    # Request id of each job waiting in the batching queue, so the fused
    # walk that serves it can link back.
    job_rids: dict[int, int] = {}
    submit = batching.BatchingQueue.submit

    async def traced_submit(self, key, session, job):
        with rec.span("batching.submit") as record:
            job_rids[id(job)] = record["rid"]
            try:
                return await submit(self, key, session, job)
            finally:
                job_rids.pop(id(job), None)

    batching.BatchingQueue.submit = traced_submit

    run = QueryPool.run

    async def traced_run(self, fn, *args):
        with rec.span("pool.run") as record:
            if fn is batching._run_batch:
                record["links"] = [job_rids.get(id(job)) for job in args[1]]

            def execute(*inner):
                with rec.span("pool.exec"):
                    return fn(*inner)

            context = contextvars.copy_context()
            return await run(self, lambda *a: context.run(execute, *a), *args)

    QueryPool.run = traced_run

    _wrap(rec, SessionRegistry, "get", "registry.get")
    for verb in SESSION_VERBS:
        _wrap(rec, MiningSession, verb, f"session.{verb}", outermost="session.")
    _wrap(rec, guards, "estimate_cost", "guards.estimate_cost")
    _wrap(rec, planner, "plan_query", "planner.plan_query")
    _wrap(rec, sampling, "approx_count_session", "sampling.approx_count_session")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    from repro.service.http import serve

    rec = Recorder()
    install(rec)
    try:
        serve(args.host, args.port)
    finally:
        rec.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured workload process; ``run.py`` spawns it.

Usage, from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/workload.py MANIFEST --t0 T --seconds S --trace 0|1 \
        --out RESULT.json [--setup-only]

``--t0`` is the ``time.monotonic()`` reading the parent took just before
spawning this process, so ``setup_s`` covers interpreter start,
``import repro``, opening the stores, preparing the sessions and
compiling the plans (for ``service-http``: booting the server until
``/health`` answers and one request per graph).  The process then runs
one untimed warm-up pass and measures passes back to back for
``--seconds``.  With ``--trace 1`` it measures half the time untraced
(the reference for ``trace.overhead``) and half with spans around every
call into a layer.  Offline task times are host-adjusted (see
``host_factor``).  Every answer is checked against the manifest's
reference answers; the result is written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from statistics import median, quantiles

import spans as spanlib

clock = time.perf_counter
MIN_PASSES = 3

# The host-speed probe: a fixed pure-Python loop and its duration on a
# quiet host (2-vCPU x86_64, CPython 3.11).
PROBE_ITERATIONS = 100_000
REFERENCE_PROBE_S = 0.0065


def host_factor() -> float:
    """Reference over current duration of the probe, timed right now.

    A shared host's speed swings by a third within a minute and stays
    slow for minutes at a time, so medians of raw wall time differ by
    more than that between runs of the same code.  Offline tasks are
    reported in host-adjusted seconds: each task's wall time times the
    factor read just before it, i.e. the time it would have taken at the
    probe's reference speed.  Raw wall times stay in the record.
    """
    started = clock()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return REFERENCE_PROBE_S / (clock() - started)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tally:
    """Operation outcomes: attempted, failed (raised / not ok), wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, failed: bool = False, detail: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if failed:
                self.failed += 1
            elif not ok:
                self.wrong += 1
            if (failed or not ok) and len(self.errors) < 10:
                self.errors.append(detail)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": self.errors,
        }


# ----------------------------------------------------------------------
# Offline workloads: census and labeled-fsm
# ----------------------------------------------------------------------


def prepare_layers(store_paths, plan_patterns):
    """Open, prepare and plan: returns (sessions, setup layer times)."""
    from repro.core import MiningSession
    from repro.graph import open_graph

    layers = {}
    started = clock()
    graphs = {name: open_graph(path) for name, path in store_paths.items()}
    layers["graph.open_ms"] = (clock() - started) * 1e3
    sessions = {name: MiningSession(g) for name, g in graphs.items()}
    started = clock()
    for session in sessions.values():
        session.ordered
        session.view
    layers["session.prepare_ms"] = (clock() - started) * 1e3
    started = clock()
    for name, pattern, edge_induced in plan_patterns:
        sessions[name].plan_for(pattern, edge_induced=edge_induced)
    layers["plan.compile_ms"] = (clock() - started) * 1e3
    return sessions, layers


def run_passes(tasks, seconds: float, tally: Tally, traced=False, min_passes=1):
    """Run the task list back to back; returns one dict per pass.

    Each pass dict holds ``wall`` (host-adjusted seconds, the sum over
    its tasks), ``raw`` (the same in wall-clock seconds), ``factor``
    (the median host factor) and, when traced, each task's adjusted
    seconds and return value.
    """
    passes = []
    deadline = clock() + seconds
    while True:
        record = {"tasks": {}, "values": {}, "wall": 0.0, "raw": 0.0}
        factors = []
        for name, call, check in tasks:
            factor = host_factor()
            task_started = clock()
            try:
                value = call()
            except Exception as exc:  # one failed operation, keep going
                traceback.print_exc(file=sys.stderr)
                tally.record(False, failed=True, detail=f"{name}: {exc!r}")
                continue
            took = clock() - task_started
            factors.append(factor)
            record["wall"] += took * factor
            record["raw"] += took
            if traced:
                record["tasks"][name] = took * factor
                record["values"][name] = value
            tally.record(check(value), detail=f"{name}: wrong answer")
        record["factor"] = median(factors) if factors else 1.0
        passes.append(record)
        if clock() >= deadline and len(passes) >= min_passes:
            return passes


def offline_end_to_end(passes, tasks_per_pass: int) -> dict:
    """Host-adjusted pass metrics; throughput is tasks per adjusted second."""
    walls = [p["wall"] for p in passes]
    return {
        "pass_s": median(walls),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p90_ms": p90(walls) * 1e3,
        "throughput_qps": len(passes) * tasks_per_pass / sum(walls),
    }


def task_median(passes, name: str) -> float:
    return median(p["tasks"][name] for p in passes if name in p["tasks"])


def measure_offline(tasks, args, extra_layers):
    """Warm up, then the untraced (and, traced, the spanned) phases."""
    tally = Tally()
    started = clock()
    run_passes(tasks, 0.0, tally)
    layers = {"warmup_s": clock() - started}
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(tasks, seconds, tally, min_passes=MIN_PASSES)
    e2e = offline_end_to_end(plain, len(tasks))
    raw = {
        "pass_s": [p["wall"] for p in plain],
        "pass_wall_s": [p["raw"] for p in plain],
        "host_factor": [p["factor"] for p in plain],
    }
    if args.trace:
        traced = run_passes(tasks, seconds, tally, traced=True, min_passes=MIN_PASSES)
        layers["trace.overhead"] = median(p["wall"] for p in traced) / e2e["pass_s"]
        layers["host.slowdown"] = 1.0 / median(p["factor"] for p in plain + traced)
        layers.update(extra_layers(traced, tally))
    return e2e, layers, tally, raw


def census(manifest: dict, args) -> dict:
    from repro.mining import motif_counts
    from repro.pattern import generate_all_vertex_induced, generate_clique
    from repro.runtime import process_count
    from inputs import motif_code

    expected = manifest["expected"]
    cliques = {k: generate_clique(k) for k in (3, 4, 5)}
    plans = [("skewed", cliques[k], True) for k in (3, 4, 5)]
    plans += [("mid", m, False) for m in generate_all_vertex_induced(4)]
    plans += [("sparse", cliques[3], True)]
    plans += [("sparse", m, False) for m in generate_all_vertex_induced(3)]
    sessions, setup_layers = prepare_layers(manifest["stores"], plans)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    skewed, mid, sparse = sessions["skewed"], sessions["mid"], sessions["sparse"]

    def codes(table):
        return {motif_code(p): c for p, c in table.items()}

    in_process: dict = {}

    def motif4():
        in_process["last"] = codes(motif_counts(mid, 4))
        return in_process["last"]

    tasks = [
        ("accel.clique3", lambda: skewed.count(cliques[3]),
         lambda v: v == expected["clique3"]),
        ("accel.clique4", lambda: skewed.count(cliques[4]),
         lambda v: v == expected["clique4"]),
        ("accel.exists5", lambda: skewed.exists(cliques[5]),
         lambda v: v == expected["exists5"]),
        ("parallel.clique5",
         lambda: process_count(skewed, cliques[5], num_processes=2),
         lambda v: v == expected["clique5"]),
        ("multipattern.motif4", motif4, lambda v: v == expected["motif4"]),
        # In-process and process censuses of the same graph must agree.
        ("parallel.motif4",
         lambda: codes(motif_counts(mid, 4, num_processes=2)),
         lambda v: v == expected["motif4"] and v == in_process.get("last")),
        ("engine.sparse_triangles", lambda: sparse.count(cliques[3]),
         lambda v: v == expected["sparse_triangles"]),
        ("engine.sparse_motif3", lambda: codes(motif_counts(sparse, 3)),
         lambda v: v == expected["sparse_motif3"]),
    ]

    def layers_from(traced, tally):
        t = {name: task_median(traced, name) for name, _, _ in tasks}
        factor = host_factor()
        serial_started = clock()
        serial = skewed.count(cliques[5])
        serial_s = (clock() - serial_started) * factor
        tally.record(serial == expected["clique5"], detail="serial clique:5")
        return {
            "accel.clique3_s": t["accel.clique3"],
            "accel.clique4_s": t["accel.clique4"],
            "accel.exists5_s": t["accel.exists5"],
            "accel.matches_per_s": (expected["clique3"] + expected["clique4"])
            / (t["accel.clique3"] + t["accel.clique4"]),
            "multipattern.motif4_s": t["multipattern.motif4"],
            "parallel.clique5_s": t["parallel.clique5"],
            "parallel.motif4_s": t["parallel.motif4"],
            "parallel.motif4_ratio": t["parallel.motif4"] / t["multipattern.motif4"],
            "parallel.clique5_speedup": serial_s / t["parallel.clique5"],
            "parallel.worker_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
            "engine.sparse_s": t["engine.sparse_triangles"]
            + t["engine.sparse_motif3"],
        }

    e2e, layers, tally, raw = measure_offline(tasks, args, layers_from)
    layers.update(setup_layers)
    return finish(setup_s, e2e, layers, tally, raw)


def labeled_fsm(manifest: dict, args) -> dict:
    from repro.mining import fsm, labeled_motif_counts
    from repro.pattern import Pattern, generate_all_vertex_induced
    from inputs import fsm_table

    expected = manifest["expected"]
    plans = [("labeled", Pattern.from_edges([(0, 1)]), True)]
    plans += [("labeled", m, False) for m in generate_all_vertex_induced(3)]
    sessions, setup_layers = prepare_layers(manifest["stores"], plans)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    session = sessions["labeled"]
    edges, threshold = manifest["fsm_edges"], manifest["threshold"]

    def structural_sums(table):
        sums: dict = {}
        for (code, _labels), count in table.items():
            sums[repr(code)] = sums.get(repr(code), 0) + count
        return sums

    tasks = [
        # Dense-domain FSM against the RoaringBitmap-domain reference.
        ("fsm", lambda: fsm(session, edges, threshold),
         lambda v: fsm_table(v) == expected["fsm"]),
        # Labeled census folded by structure against motif_counts.
        ("labeled.motif3", lambda: labeled_motif_counts(session, 3),
         lambda v: structural_sums(v) == expected["motif3"]),
    ]

    def layers_from(traced, tally):
        result = traced[-1]["values"]["fsm"]
        table = traced[-1]["values"]["labeled.motif3"]
        frequent = sum(len(t) for t in result.frequent_by_size.values())
        motif_s = task_median(traced, "labeled.motif3")
        return {
            "fsm.s": task_median(traced, "fsm"),
            "fsm.patterns_explored": result.patterns_explored,
            "fsm.domain_writes": result.domain_writes,
            "fsm.domain_mb": result.domain_bytes / 2**20,
            "fsm.frequent_ratio": frequent / result.patterns_explored,
            "labeled.motif3_s": motif_s,
            "labeled.callbacks_per_s": sum(table.values()) / motif_s,
        }

    e2e, layers, tally, raw = measure_offline(tasks, args, layers_from)
    layers.update(setup_layers)
    return finish(setup_s, e2e, layers, tally, raw)


def finish(setup_s, e2e, layers, tally, raw, peak_rss=None) -> dict:
    e2e["peak_rss_mb"] = rss_mb() if peak_rss is None else peak_rss
    return {
        "setup_s": setup_s,
        "end_to_end": e2e,
        "per_layer": layers,
        "samples": {name: len(values) for name, values in raw.items()},
        "raw": raw,
        **tally.as_dict(),
    }


# ----------------------------------------------------------------------
# service-http: the server in its own process, a 2-thread closed loop
# ----------------------------------------------------------------------

LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0


class Server:
    """One server process; ``trace_out`` selects the spanned launcher."""

    def __init__(self, trace_out: str | None = None, timeout: float = 120.0):
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            launcher = os.path.join(os.path.dirname(__file__), "launcher.py")
            cmd = [sys.executable, launcher, "--port", "0", "--trace-out", trace_out]
        started = clock()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.rusage = None
        try:
            self.host, self.port = self._await_banner(timeout)
            self._await_health(started + timeout)
        except BaseException:
            self.stop()
            raise
        self.boot_s = clock() - started

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
            sys.stderr.write(f"[server] {line}")

    def _await_banner(self, timeout: float):
        deadline = clock() + timeout
        while clock() < deadline:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                break
            match = LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server printed no listening banner")

    def _await_health(self, deadline: float) -> None:
        url = f"http://{self.host}:{self.port}/health"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5.0) as response:
                    if response.status == 200:
                        return
            except OSError:
                if clock() >= deadline:
                    raise
            time.sleep(0.005)

    def stats(self) -> dict:
        url = f"http://{self.host}:{self.port}/stats"
        with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
            return json.load(response)["result"]

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT, wait (collecting the rusage), kill on timeout."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        deadline = clock() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                break
            if clock() >= deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                break
            time.sleep(0.02)
        self._reader.join(timeout=10.0)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


class Client:
    """One keep-alive connection issuing requests and checking answers."""

    def __init__(self, server: Server, manifest: dict, tally: Tally):
        self.conn = http.client.HTTPConnection(
            server.host, server.port, timeout=REQUEST_TIMEOUT_S
        )
        self.manifest = manifest
        self.tally = tally

    def close(self) -> None:
        self.conn.close()

    def request(self, payload: dict) -> float:
        """Send one request, check it, return its latency in seconds."""
        started = clock()
        try:
            body = json.dumps(payload)
            self.conn.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = json.loads(self.conn.getresponse().read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            elapsed = clock() - started
            self.conn.close()  # reconnects on the next request
            self.tally.record(False, failed=True, detail=repr(exc))
            return elapsed
        elapsed = clock() - started
        if not response.get("ok"):
            self.tally.record(False, failed=True, detail=json.dumps(response)[:300])
            return elapsed
        want = self.manifest["expected"][request_key(payload)]
        ok = check_response(payload, response["result"], want, self.manifest)
        self.tally.record(ok, detail=f"wrong answer to {payload['verb']}")
        return elapsed


def request_key(request: dict) -> str:
    """Identity of a request's answer (approx seeds share the exact count)."""
    fields = {k: v for k, v in request.items() if k not in ("seed", "rel_err")}
    fields["graph"] = os.path.basename(fields["graph"])
    if fields["verb"] == "approx_count":
        fields["verb"] = "count"
    return json.dumps(fields, sort_keys=True)


def check_response(payload: dict, result: dict, want: dict, manifest) -> bool:
    verb = payload["verb"]
    if verb == "motifs":
        return result["counts"] == want["counts"]
    if verb == "exists":
        return result["exists"] == want["exists"]
    if verb == "approx_count":
        error = abs(result["estimate"] - want["count"])
        allowed = manifest["approx_tolerance"] * payload["rel_err"] * want["count"]
        return error <= allowed
    if result["count"] != want["count"]:
        return False
    if verb == "match":
        rows = result["matches"]
        return (
            len(rows) == min(payload["limit"], want["count"])
            and len({tuple(r) for r in rows}) == len(rows)
        )
    return True


def closed_loop(server: Server, manifest: dict, cycle: list, seconds: float,
                tally: Tally, warmup: bool = False):
    """CLIENTS threads walk the request cycle until ``seconds`` pass.

    Each client starts at its own offset of the cycle.  Returns
    (latencies, cycle times, ok count, window seconds); with ``warmup``
    every client makes exactly one cycle.
    """
    latencies: list[float] = []
    cycles: list[float] = []
    lock = threading.Lock()
    started = clock()
    deadline = started + seconds

    def client_loop(index: int) -> None:
        client = Client(server, manifest, tally)
        offset = index * len(cycle) // CLIENTS
        order = cycle[offset:] + cycle[:offset]
        try:
            while True:
                cycle_started = clock()
                mine = [client.request(payload) for payload in order]
                elapsed = clock() - cycle_started
                with lock:
                    latencies.extend(mine)
                    cycles.append(elapsed)
                if warmup or clock() >= deadline:
                    return
        finally:
            client.close()

    before = tally.attempted - tally.failed - tally.wrong
    threads = [
        threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ok = tally.attempted - tally.failed - tally.wrong - before
    return latencies, cycles, ok, clock() - started


def service_setup(manifest: dict, tally: Tally, trace_out=None) -> Server:
    """Boot the server and send one request per graph."""
    server = Server(trace_out)
    client = Client(server, manifest, tally)
    try:
        for path in manifest["stores"].values():
            client.request({"verb": "count", "graph": path, "pattern": "clique:3"})
    finally:
        client.close()
    return server


def service_phase(manifest, cycle, seconds, tally, trace_out=None, on_ready=None):
    """Boot a server, warm up one cycle, measure, read /stats, stop."""
    server = service_setup(manifest, tally, trace_out)
    if on_ready is not None:
        on_ready()
    try:
        started = clock()
        closed_loop(server, manifest, cycle, 0.0, tally, warmup=True)
        warmup_s = clock() - started
        latencies, cycles, ok, window = closed_loop(
            server, manifest, cycle, seconds, tally
        )
        stats = server.stats()
    finally:
        server.stop()
    return {
        "boot_s": server.boot_s,
        "warmup_s": warmup_s,
        "latencies": latencies,
        "cycles": cycles,
        "throughput": ok / window,
        "stats": stats,
        "peak_rss_mb": server.peak_rss_mb,
    }


def service_layers(phase: dict, spans: list[dict]) -> dict:
    """Per-layer numbers from the traced server's spans and /stats."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    requests = [
        s for s in by_name.get("handlers.dispatch", [])
        if s["attrs"]["verb"] != "stats"
    ]
    own = spanlib.self_times(spans)
    layers = {
        f"handlers.{verb}_p50_ms": spanlib.median_ms(
            spanlib.duration(s) for s in requests if s["attrs"]["verb"] == verb
        )
        for verb in ("count", "exists", "match", "motifs", "approx_count")
    }
    dispatch_p50 = spanlib.median_ms(spanlib.duration(s) for s in requests)
    client_p50 = median(phase["latencies"]) * 1e3
    layers["http.overhead_ms"] = client_p50 - dispatch_p50
    layers["handlers.self_ms"] = spanlib.median_ms(own[s["id"]] for s in requests)
    for metric, name in (
        ("registry.get_ms", "registry.get"),
        ("guards.probe_ms", "guards.estimate_cost"),
        ("planner.plan_ms", "planner.plan_query"),
        ("sampling.approx_ms", "sampling.approx_count_session"),
    ):
        layers[metric] = spanlib.median_ms(
            spanlib.duration(s) for s in by_name.get(name, [])
        )
    layers["session.walk_ms"] = spanlib.median_ms(
        spanlib.duration(s) for s in spans if s["name"].startswith("session.")
    )
    runs = {s["id"]: s for s in by_name.get("pool.run", [])}
    submits = {s["rid"]: s for s in by_name.get("batching.submit", [])}
    pool_waits, batch_waits = [], []
    for execute in by_name.get("pool.exec", []):
        run = runs.get(execute["parent"])
        if run is None:
            continue
        pool_waits.append(execute["start"] - run["start"])
        for rid in run.get("links") or ():
            if rid in submits:
                batch_waits.append(execute["start"] - submits[rid]["start"])
    layers["pool.wait_ms"] = spanlib.median_ms(pool_waits)
    layers["batching.wait_ms"] = spanlib.median_ms(batch_waits)
    batching = phase["stats"]["batching"]
    registry = phase["stats"]["registry"]
    layers["batching.fusion_rate"] = batching["fusion_batch_rate"]
    layers["batching.dedup_rate"] = batching["deduped_requests"] / max(
        1, batching["batched_requests"]
    )
    layers["batching.mean_batch_size"] = batching["batched_requests"] / max(
        1, batching["batches"]
    )
    layers["registry.hit_rate"] = registry["hits"] / max(
        1, registry["hits"] + registry["misses"]
    )
    return layers


def service_http(manifest: dict, args) -> dict:
    tally = Tally()
    with open(manifest["requests"]) as fh:
        cycle = json.load(fh)
    if args.setup_only:
        server = service_setup(manifest, tally)
        setup_s = time.monotonic() - args.t0
        server.stop()
        return {"setup_s": setup_s, **tally.as_dict()}

    # The first boot is this process's setup, measured up to the moment
    # the first timed request is ready to go.
    setup = {}

    def ready() -> None:
        setup["setup_s"] = time.monotonic() - args.t0

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = service_phase(manifest, cycle, seconds, tally, on_ready=ready)
    e2e = {
        "pass_s": median(plain["cycles"]),
        "latency_p50_ms": median(plain["latencies"]) * 1e3,
        "latency_p90_ms": p90(plain["latencies"]) * 1e3,
        "throughput_qps": plain["throughput"],
    }
    raw = {
        "pass_s": plain["cycles"],
        "latency_ms": [x * 1e3 for x in plain["latencies"]],
    }
    layers = {"service.boot_s": plain["boot_s"], "warmup_s": plain["warmup_s"]}
    if args.trace:
        trace_out = args.out + ".spans.json"
        traced = service_phase(manifest, cycle, seconds, tally, trace_out)
        with open(trace_out) as fh:
            spans = json.load(fh)
        layers.update(service_layers(traced, spans))
        layers["trace.overhead"] = (
            median(traced["latencies"]) * 1e3 / e2e["latency_p50_ms"]
        )
        from repro.cli.parsing import parse_pattern_spec

        name_of = {path: name for name, path in manifest["stores"].items()}
        plans = [
            (name_of[r["graph"]], parse_pattern_spec(r["pattern"]), True)
            for r in cycle if "pattern" in r
        ]
        _, setup_layers = prepare_layers(manifest["stores"], plans)
        layers.update(setup_layers)
    return finish(setup["setup_s"], e2e, layers, tally, raw, plain["peak_rss_mb"])


WORKLOADS = {
    "census": census,
    "labeled-fsm": labeled_fsm,
    "service-http": service_http,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured workload")
    parser.add_argument("manifest")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    result = WORKLOADS[manifest["workload"]](manifest, args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

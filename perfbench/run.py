"""The repository benchmark: one command, three workloads, checked answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads are ``census``, ``labeled-fsm`` and ``service-http`` (see
``perfbench/README.md``).  The command builds the seeded inputs and
their reference answers (cached under ``.perfbench/``), spawns the
measured workload process several times to sample set-up time, half
before and half after the one process that measures for
``--seconds``.  With ``--trace 0`` the last stdout line reports every
end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` every per-layer metric (a layer the workload never enters
reads 0).  The line before it records provenance and the spread of
every metric.  A wrong answer or a failed operation makes ``correct``
false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
SETUP_PROBES = 6  # extra set-up-only spawns; setup_s is the median
RUN_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def summary(values: list[float]) -> dict:
    """Median and quartiles of one metric's samples within a run."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


def source_digest(root: str) -> str:
    """sha256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran.

    Shared hosts drift by tens of percent over a minute; recording this
    before and after the measured run lets a reader tell a slow host
    from a slow program.  It is not folded into any metric.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return median(times) * 1e3


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's own repository, if it is one."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, args) -> dict:
    import numpy

    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def spawn(manifest_path: str, out: str, env: dict, seconds: float,
          trace: int, setup_only: bool, timeout: float) -> dict:
    """Run one workload process; returns its result dict."""
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), manifest_path,
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    # The child's stdout goes to our stderr: our stdout carries results.
    # Its own session lets a timeout take down the servers it started.
    child = subprocess.Popen(
        cmd, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    with open(out) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("census", "labeled-fsm", "service-http"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test graphs (seconds, not minutes)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # A shell may start us with SIGINT ignored, which every child would
    # inherit; the servers stop on SIGINT, so give them the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(src, "repro")):
        return fail(f"no program source at {src}/repro; run from a checkout root")
    if not os.path.isfile(spec_path):
        return fail(f"no {spec_path}")
    with open(spec_path) as fh:
        spec = json.load(fh)

    sys.path.insert(0, src)
    import inputs

    work_dir = os.path.join(WORK_DIR, f"v{inputs.cache_tag()}")
    manifest = inputs.build(args.workload, args.seed, work_dir, args.scale)
    manifest_path = os.path.join(manifest["root"], "manifest.json")
    reference_ok = inputs.matches_committed(manifest)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(
        results_dir, f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    )
    host_before = host_speed_ms()
    setups = []
    probes = {"attempted": 0, "failed": 0, "wrong": 0}

    def setup_probes(first: int, count: int) -> None:
        for i in range(first, first + count):
            remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
            probe = spawn(manifest_path, f"{stem}.setup{i}.json", env, 0.0, 0,
                          True, timeout=max(min(remaining, 60.0), 1.0))
            setups.append(probe["setup_s"])
            for key in probes:  # service set-ups send requests; count them
                probes[key] += probe.get(key, 0)

    # Half the set-up probes before the measured run and half after it,
    # so the median samples the host at two moments half a minute apart.
    setup_probes(0, SETUP_PROBES // 2)
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    result = spawn(manifest_path, f"{stem}.run.json", env, args.seconds,
                   args.trace, False, timeout=max(remaining, 1.0))
    setups.append(result["setup_s"])
    setup_probes(SETUP_PROBES // 2, SETUP_PROBES - SETUP_PROBES // 2)
    for key, value in probes.items():
        result[key] += value
    host_ms = [host_before, host_speed_ms()]

    measured = dict(result["end_to_end"], setup_s=median(setups))
    section = "per_layer" if args.trace else "end_to_end"
    source = result["per_layer"] if args.trace else measured
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[section]
    }
    correct = (
        reference_ok and result["wrong"] == 0 and result["failed"] == 0
    )
    record = {
        "provenance": provenance(root, args),
        "host_speed_ms": host_ms,
        "reference_matches_committed": reference_ok,
        "input_build_s": manifest["build_s"],
        "graphs": manifest["graphs"],
        "samples": result["samples"],
        "spread": {
            name: summary(values) for name, values in result["raw"].items()
        } | {"setup_s": summary(setups)},
        "error_rate": result["failed"] / result["attempted"],
        "wrong_answers": result["wrong"],
        "errors": result["errors"],
        "end_to_end": measured,
        "per_layer": result["per_layer"],
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

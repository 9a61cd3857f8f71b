"""Benchmark of the prophet-matching library: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root.  Each workload runs in fresh worker
processes (perfbench/worker.py) that import the library from ``src/``.
With ``--trace 0`` the timed calls run untraced, beside a host-speed sampler
(perfbench/sampler.py) that scales each timing to a reference host speed,
and the result carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced calls in turn give the per-layer metrics.
Every run checks the library's outputs (perfbench/checks.py and the
worker's trace self-tests) and prints, as its last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines above it give each metric's median, quartiles and sample count,
``error_rate`` (failed / attempted checks), the machine facts, the output
fingerprints, and the raw call times and host speeds behind ``wall_s``.
Workloads, metrics and the predicted effect of each layer are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gate-quick", "ratio-vertex-K50x50", "ratio-edge-K20")
SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is measured
# CPU time of one sampler burst at the reference host speed: timings are
# reported in seconds at that speed (see perfbench/README.md, "Host speed")
REF_BURST_NS = 1.5e6
MIN_BURSTS = 8  # sampler bursts behind each speed estimate
DEADLINE_S = 170.0  # per workload; the worker is killed past it


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start a worker, time it up to its ready line; return the monotonic
    window [start, ready] in ns and the worker's result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_window = [t0, time.monotonic_ns()]
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.strip():
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    return setup_window, (json.loads(rest) if mode != "setup" else None)


class HostSampler:
    """The host-speed sampler (perfbench/sampler.py) as a context manager:
    started on entry, stopped and waited for on every way out."""

    def __enter__(self):
        self.samples = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sampler.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(timeout=10)
            if self.proc.returncode == 0 and out.strip():
                self.samples = json.loads(out)["samples"]
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        return False

    def speed(self, window: list[int]) -> float:
        """Host speed over a monotonic window, relative to the reference speed:
        REF_BURST_NS over the trimmed mean CPU time of the bursts in the
        window (or of the MIN_BURSTS nearest to it, if fewer fell inside)."""
        if len(self.samples) < MIN_BURSTS:
            raise BenchError(f"the host sampler gave {len(self.samples)} bursts")
        a, b = window
        inside = [cpu for t, cpu in self.samples if a <= t <= b]
        if len(inside) < MIN_BURSTS:
            mid = (a + b) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_BURSTS]
            inside = [cpu for _, cpu in nearest]
        inside.sort()
        cut = len(inside) // 10
        kept = inside[cut:len(inside) - cut]
        return REF_BURST_NS / statistics.fmean(kept)


def spread(samples: list[float]) -> dict:
    if len(samples) < 2:
        return {"median": samples[0], "q1": samples[0], "q3": samples[0], "n": len(samples)}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
    }


def check_outputs(found: checks.Checks, workload: str, result: dict) -> dict:
    """Run the output checks; return the stream fingerprint (reported, not gated)."""
    if workload == "gate-quick":
        checks.check_gate(found, result["reports"])
        return {"tightest_z": checks.tightest_z(result["reports"])}
    checks.check_ratio(found, result["graph"], result["pairs"])
    return {
        "csv_sha256": [hashlib.sha256(p["csv"][0].encode()).hexdigest() for p in result["pairs"]]
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[checks.Checks, dict, dict]:
    """One workload: returns its checks, metric samples and facts."""
    deadline = time.monotonic() + DEADLINE_S
    found = checks.Checks()
    if trace:
        _, result = run_worker(workload, seed, seconds, "trace", deadline)
        for name, ok, detail in result["self_tests"]:
            found.expect(ok, f"self-test: {name} ({detail})")
        samples = {name: [value] for name, value in result["metrics"].items()}
    else:
        with HostSampler() as sampler:
            # one unmeasured start first, so that compiled bytecode and the
            # page cache are warm for every measured one
            run_worker(workload, seed, seconds, "setup", deadline)
            setups = [
                run_worker(workload, seed, seconds, "setup", deadline)[0]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            setup_window, result = run_worker(workload, seed, seconds, "run", deadline)
            setups.append(setup_window)
        raw_walls = [(b - a) / 1e9 for a, b in result["windows"]]
        speeds = [sampler.speed(w) for w in result["windows"]]
        # seconds at the reference speed: a call that took t seconds on a
        # host running at speed x would take t * x at speed 1.  Set-up time
        # is raw: process start and extension loading do not follow the
        # sampler's speed.
        walls = [t * x for t, x in zip(raw_walls, speeds)]
        samples = {
            "wall_s": walls,
            "trials_per_s": [result["trials"] / w for w in walls],
            "setup_s": [(b - a) / 1e9 for a, b in setups],
            "peak_rss_mb": [result["peak_rss_mb"]],
        }
    facts = {"fingerprint": check_outputs(found, workload, result)}
    if trace:
        facts["spans"] = result["paths"]
    else:
        facts["raw_wall_s"] = spread(raw_walls)
        facts["host_speed"] = spread(speeds)
    return found, samples, facts


def report(workload: str, spec: list[dict], found: checks.Checks, samples: dict) -> dict:
    """Print one workload's table; return its metrics in the result format."""
    metrics = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        s = spread(samples[name])
        metrics[name] = {"value": s["median"], "unit": unit}
        line = f"{workload:20s} {name:52s} {s['median']:14.6g} {unit:12s}"
        if s["n"] > 1:
            line += f" median of {s['n']}, quartiles {s['q1']:.6g} .. {s['q3']:.6g}"
        print(line)
    error_rate = found.failed / found.attempted if found.attempted else 1.0
    print(
        f"{workload:20s} {'error_rate':52s} {error_rate:14.6g} {'frac':12s}"
        f" {found.failed} of {found.attempted} checks failed"
    )
    for line in found.failures[:20]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "prophet_matching" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = checks.Checks()
    metrics = {}
    info = {"seed": args.seed, "trace": args.trace, "machine": machine_facts()}
    try:
        for workload in workloads:
            found, samples, facts = measure(workload, args.seed, args.seconds, bool(args.trace))
            for name, value in report(workload, metric_spec, found, samples).items():
                metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = value
            total.attempted += found.attempted
            total.failures += found.failures
            info[workload] = facts
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": total.failed == 0,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository's benchmark: one command per workload, every metric with
its unit, output checks included.

    python3 perfbench/run.py --workload sweep-util --seed 7 --seconds 10 --trace 0

Run from the repository root.  The first run builds the library, the
mcs_serve daemon and the harness from source (Release) into .bench_build/
(or $CARGO_TARGET_DIR).  The lines before the last are the human-readable
report: provenance, the metrics table, the checks; the last line is the
result as one JSON object.  Workloads, metrics and the layer-to-metric map
are described in perfbench/README.md; the metric names are those of
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-util", "sweep-demand", "serve-mix", "sim-validate")
# Set-up is repeated in fresh processes and reported as the median of the
# CPU time each start-up used.  A start-up takes a few milliseconds, and
# its wall time on a shared machine swings with the time spent waiting for
# a CPU: on the 4-CPU machine the benchmark was defined on, eight busy
# processes raised a harness start-up from about 2 to 5.3 ms of wall time
# while its CPU time stayed at about 1.8 ms.  CPU time is what work moved
# into set-up adds.
SETUP_REPS = 16
DAEMON_TIMEOUT_S = 10.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark package; build output goes
    to stderr so stdout stays the report."""
    cmake_dir = build_dir() / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return cmake_dir


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def harness_cmd(cmake_dir, args, run_dir, socket_path, extra=()):
    return [str(cmake_dir / "perfbench_harness"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--threads", str(os.cpu_count() or 1),
            "--out-dir", str(run_dir), "--socket", str(socket_path),
            "--expected", str(HERE / "expected" / (args.workload + ".json")),
            *extra]


def run_harness(cmd):
    """Runs the harness; returns (its report lines, its result document)."""
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def daemon_request(path, text, timeout=DAEMON_TIMEOUT_S):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(str(path))
        s.sendall(text.encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                raise RuntimeError("daemon closed the connection")
            data += chunk
    return json.loads(data)


class Daemon:
    """mcs_serve on an AF_UNIX socket inside the build directory.  ready_s
    is the wall time from the spawn until the first ping is answered."""

    def __init__(self, cmake_dir, socket_path):
        if socket_path.exists():
            socket_path.unlink()
        self.socket_path = socket_path
        t0 = time.monotonic_ns()
        self.proc = subprocess.Popen([str(cmake_dir / "mcs_serve"),
                                      "--socket", str(socket_path)],
                                     stderr=subprocess.DEVNULL)
        while True:
            try:
                if daemon_request(socket_path, "mcs-serve/1 1 ping\n").get("pong"):
                    break
            except (OSError, ValueError, RuntimeError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError("mcs_serve exited during start-up")
            if time.monotonic_ns() - t0 > DAEMON_TIMEOUT_S * 1e9:
                self.stop()
                raise RuntimeError("mcs_serve did not answer a ping")
            time.sleep(0.0002)
        self.ready_s = (time.monotonic_ns() - t0) / 1e9

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for mcs_serve")

    def stop(self):
        """Shuts the daemon down and reaps it; returns the CPU seconds it
        used over its life, or None when it had to be killed."""
        if self.proc.returncode is not None:
            return None
        try:
            daemon_request(self.socket_path, "mcs-serve/1 2 shutdown\n")
        except (OSError, ValueError, RuntimeError):
            pass
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        killed = False
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return None if killed else usage.ru_utime + usage.ru_stime
            if not killed and time.monotonic() > deadline:
                self.proc.kill()
                killed = True
            time.sleep(0.001)


def measure(args, cmake_dir, run_dir):
    """Set-up repetitions plus the measured run; returns (set-up CPU
    seconds, set-up wall seconds, harness report lines, harness result,
    daemon peak RSS or None).  A harness start-up runs until its first
    timed operation; a daemon start-up until it exits after answering its
    first ping and a shutdown."""
    socket_path = run_dir / "serve.sock"
    cpu, wall = [], []
    if args.workload == "serve-mix":
        for _ in range(SETUP_REPS):
            daemon = Daemon(cmake_dir, socket_path)
            wall.append(daemon.ready_s)
            used = daemon.stop()
            if used is None:
                raise RuntimeError("mcs_serve did not shut down")
            cpu.append(used)
        daemon = Daemon(cmake_dir, socket_path)
        try:
            lines, doc = run_harness(harness_cmd(cmake_dir, args, run_dir, socket_path))
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        return cpu, wall, lines, doc, rss
    for _ in range(SETUP_REPS):
        t0 = time.monotonic_ns()
        _, doc = run_harness(harness_cmd(cmake_dir, args, run_dir, socket_path,
                                         ["--setup-only"]))
        wall.append((doc["ready_ns"] - t0) / 1e9)
        cpu.append(doc["ready_cpu_ns"] / 1e9)
    lines, doc = run_harness(harness_cmd(cmake_dir, args, run_dir, socket_path))
    return cpu, wall, lines, doc, None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate perfbench/expected/<workload>.json "
                             "(reference seed 1) and exit")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    os.chdir(ROOT)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the mcs sources (src/) are not in this checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        cmake_dir = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        log(f"perfbench: build failed: {exc}")
        return 2
    run_dir = build_dir() / "run" / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)

    if args.write_expected:
        if args.workload not in ("sweep-util", "sweep-demand"):
            parser.error("--write-expected applies to the sweep workloads")
        out = HERE / "expected" / (args.workload + ".json")
        out.parent.mkdir(exist_ok=True)
        args.seed = 1
        run_harness(harness_cmd(cmake_dir, args, run_dir, run_dir / "serve.sock",
                                ["--write-expected", str(out)]))
        log(f"perfbench: wrote {out}")
        return 0

    try:
        setups, setup_walls, lines, doc, daemon_rss = measure(args, cmake_dir, run_dir)
    except (OSError, RuntimeError, ValueError) as exc:
        log(f"perfbench: {exc}")
        return 2

    info = doc["info"]
    info["commit"] = commit_id()
    print("provenance: " + json.dumps(info, sort_keys=True))
    for line in lines:
        print(line)

    setup = statistics.median(setups)
    metrics = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for metric in wanted:
        name = metric["name"]
        if name == "setup_s":
            value = setup
        elif name == "peak_rss_mb" and daemon_rss is not None:
            value = daemon_rss
        elif name in doc["metrics"]:
            value = doc["metrics"][name]["value"]
        elif args.trace:
            value = 0  # the layer does no work on this workload
        else:
            log(f"perfbench: harness did not measure {name}")
            return 2
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for name in sorted(set(doc["metrics"]) - set(metrics)):
        m = doc["metrics"][name]
        print(f"  (extra) {name} = {m['value']} {m['unit']}")

    summaries = doc.get("summaries", {})
    summaries["setup_s"] = {"n": len(setups), "median": setup,
                            "q1": statistics.quantiles(setups, n=4)[0],
                            "q3": statistics.quantiles(setups, n=4)[2]}
    print(f"metrics ({'per-layer, traced' if args.trace else 'end-to-end, untraced'}):")
    for name, m in metrics.items():
        line = f"  {name:40s} {m['value']:>16.6g} {m['unit']}"
        if name in summaries:
            s = summaries[name]
            line += (f"   ({s['n']} samples: median {s['median']:.6g}, "
                     f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
        print(line)

    attempted, failed = int(doc["attempted"]), int(doc["failed"])
    correct = failed == 0 and doc["valid"] and attempted > 0
    print(f"set-up wall time (not reported as a metric): median "
          f"{statistics.median(setup_walls):.6g} s over {len(setup_walls)} start-ups")
    print(f"checks: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / max(1, attempted):.6g}")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    for reason in doc["invalid_reasons"]:
        print(f"  INVALID RUN: {reason}")
    print(json.dumps({"correct": bool(correct), "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

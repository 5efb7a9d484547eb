#!/usr/bin/env python3
"""The repository benchmark: served cold and warm sweeps over loopback
and an offline CLI sweep, with per-layer numbers from a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload served_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check      # short run of every workload
    python3 perfbench/run.py --write-golden    # re-record golden.json

The first run builds the repository (Release) and the benchmark's own
tool into .bench_build/.  The seed only shapes the generated request
bodies and CLI arguments; the programs never see it.  The last line of
stdout is the result JSON; the line before it records the host, the
seed and the reconciliation.  Exit status 0 when every output was
correct, 1 when any op failed or an output differed, 2 when the
benchmark could not run at all (no source tree, build failure).
"""

import argparse
import csv
import hashlib
import http.client
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
SERVED = BUILD / "uatm" / "tools" / "uatm_served"
TOOL = BUILD / "perfbench_tool"
CLIS = ["design_space_explorer", "memory_system_planner",
        "pin_budget_planner", "linesize_advisor", "unified_report"]
TARGETS = ["perfbench_tool", "uatm_served"] + CLIS
NPROC = len(os.sched_getaffinity(0))

# golden.json is recorded at DEFAULT_SEED; HELD_OUT_SEED was never used
# while tuning, so a claimed gain can be re-checked on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_REPEATS = 11        # set-ups per run; setup_s is their median
# A cold set-up is a ~4 ms exec-to-healthy that single samples stretch
# to 10-20 ms on a shared host; more of them steady the median.
COLD_SETUP_REPEATS = 41
WINDOWS = 40              # windows per served loop (0.25 s at 10 s)
TAIL_BLOCK = 100          # served ops per tail block: p90, ten beyond
HEALTHZ_SAMPLES = 50
RECONCILE_TOLERANCE = 0.25
STEAL_LIMIT = 0.02        # windows with more hypervisor steal are set aside

COLD_REFS = 30000
COLD_MAX_REQUESTS = 5000  # more never-seen requests than a run can send
COLD_GOLDEN_REQUESTS = 4
WARM_REFS = 4000
# Points per pool request, by popularity rank (Zipf(WARM_ZIPF_S)); fixed
# so that the seed changes the requests' content but not their cost.
WARM_SIZES = [1, 2, 1, 4, 2, 8, 4, 16, 8, 32, 16, 64, 32, 128, 64, 256]
WARM_ZIPF_S = 1.0
WARM_SCHEDULE_LENGTH = 100000
# --refs per CLI: about 250 ms per invocation at --threads 4, so the
# ~35 ms per-process start-up is a small share of each op.
OFFLINE_REFS = {"design_space_explorer": 160000, "memory_system_planner": 1000000,
                "pin_budget_planner": 1000000, "linesize_advisor": 620000,
                "unified_report": 250000}

PROFILES = ["nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d"]
YCSB = ["ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"]


class BenchError(Exception):
    """The benchmark itself cannot run (exit status 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------
# Build
# ------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no uatm source tree at {ROOT}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.log", "w") as out:
        if not cache.is_file():
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if configure.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                raise BenchError("cmake configure failed; see .bench_build/build.log")
        made = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(NPROC), "--target"] + TARGETS,
            stdout=out, stderr=subprocess.STDOUT)
    if made.returncode != 0:
        raise BenchError("build failed; see .bench_build/build.log")


def cli_path(name):
    return BUILD / "uatm" / "examples" / name


# ------------------------------------------------------------------
# Host and seed record
# ------------------------------------------------------------------

def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "examples"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat: steal is time the
    hypervisor ran someone else while this host wanted the CPU."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_record(seed):
    commit = "unknown"
    try:
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=10)
        lines = probe.stdout.split()
        if probe.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    compiler = "unknown"
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            try:
                version = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, timeout=10).stdout
                compiler = version.splitlines()[0] if version else path
            except OSError:
                compiler = path
    return {"seed": seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED, "nproc": NPROC,
            "loadavg_start": os.getloadavg()[0], "build_type": "Release",
            "compiler": compiler, "commit": commit,
            "source_digest": source_digest()}


# ------------------------------------------------------------------
# Statistics
# ------------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------
# The daemon
# ------------------------------------------------------------------

def http_get(port, target, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", target)
        reply = conn.getresponse()
        return reply.status, reply.read().decode()
    finally:
        conn.close()


class Daemon:
    """One uatm_served process; start() returns exec-to-healthy seconds."""

    def __init__(self, work, clients, cache_dir=None):
        self.work = work
        self.clients = clients
        self.cache_dir = cache_dir
        self.proc = None
        self.port = None

    def start(self):
        port_file = self.work / "port"
        if port_file.exists():
            port_file.unlink()
        argv = [str(SERVED), "--threads", str(NPROC),
                "--max-queue", str(2 * self.clients),
                "--port-file", str(port_file)]
        if self.cache_dir:
            argv += ["--cache-dir", str(self.cache_dir)]
        start = time.perf_counter()
        with open(self.work / "daemon.log", "a") as log_file:
            self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log_file)
        deadline = start + 30
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("uatm_served exited during start-up")
            if self.port is None:
                try:
                    text = port_file.read_text()
                    if text.endswith("\n"):
                        self.port = int(text)
                except (OSError, ValueError):
                    pass
            if self.port is not None:
                try:
                    if http_get(self.port, "/healthz", 1.0)[0] == 200:
                        return time.perf_counter() - start
                except OSError:
                    pass
            time.sleep(0.0002)
        raise BenchError("uatm_served did not become healthy")

    def stop(self):
        if self.proc and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        self.port = None

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self):
        status, text = http_get(self.port, "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics -> {status}")
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values


def run_tool(args):
    return subprocess.run([str(TOOL)] + args, capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------------
# Workload inputs (all derived from the benchmark seed)
# ------------------------------------------------------------------

WARM_AXES = [("cache.size", [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072]),
             ("cache.assoc", [1, 2, 4, 8]),
             ("cache.line", [16, 32, 64, 128]),
             ("memory.bus_width", [4, 8])]


def cold_requests(seed, count):
    """Never-seen sweeps: geometry grids over a spec92 profile and
    workload-axis sweeps over YCSB A-F plus reuse-dist, alternating."""
    rng = random.Random(f"served_cold:{seed}")
    base = rng.randrange(1, 1 << 40)
    bodies = []
    for i in range(count):
        unique = base + 16 * i
        body = {"name": f"cold-{i}", "kernel": "cache",
                "refs": COLD_REFS, "warmup": COLD_REFS // 10}
        if i % 2 == 0:
            body["workload"] = {"method": "spec92",
                                "params": {"profile": rng.choice(PROFILES)},
                                "seed": unique}
            body["cache"] = {"line": 32}
            body["axes"] = [{"axis": "cache.size", "values": [4096, 8192, 16384, 32768]},
                            {"axis": "cache.assoc", "values": [1, 2]}]
        else:
            specs = [{"method": m, "seed": unique + j} for j, m in enumerate(YCSB)]
            specs.append({"method": "reuse-dist", "seed": unique + len(YCSB)})
            body["cache"] = {"size": rng.choice([8192, 16384, 32768]),
                             "assoc": 2, "line": 32}
            body["axes"] = [{"axis": "workload", "specs": specs}]
        bodies.append(json.dumps(body, separators=(",", ":")))
    return bodies


def warm_pool(seed):
    """The fixed-shape pool: request r sweeps WARM_SIZES[r] points."""
    rng = random.Random(f"served_warm:{seed}")
    base = rng.randrange(1, 1 << 40)
    bodies = []
    for r, size in enumerate(WARM_SIZES):
        axes, remaining = [], size
        for name, values in WARM_AXES:
            take = min(len(values), remaining)
            if take > 1 or name == "cache.size":
                axes.append({"axis": name, "values": sorted(rng.sample(values, take))})
            remaining //= take
        body = {"name": f"warm-{r}", "kernel": "cache",
                "refs": WARM_REFS, "warmup": WARM_REFS // 10,
                "workload": {"method": "spec92",
                             "params": {"profile": rng.choice(PROFILES)},
                             "seed": base + r},
                "axes": axes}
        bodies.append(json.dumps(body, separators=(",", ":")))
    return bodies


def warm_schedule(seed, length):
    """Zipf(s) popularity over the pool ranks, one index per op."""
    rng = random.Random(f"served_warm_schedule:{seed}")
    weights = [1.0 / (rank + 1) ** WARM_ZIPF_S for rank in range(len(WARM_SIZES))]
    return rng.choices(range(len(WARM_SIZES)), weights=weights, k=length)


def offline_invocations(seed):
    """One pass per profile over the five CLIs.  Pass p gives CLI c the
    profile order[(c + p) % 6], so every CLI meets every profile once
    and the seed only changes the order and the --seed values."""
    rng = random.Random(f"offline_sweep:{seed}")
    order = rng.sample(PROFILES, len(PROFILES))
    invocations = []
    for p in range(len(PROFILES)):
        for c, cli in enumerate(CLIS):
            invocations.append({"cli": cli,
                                "workload": "spec92:profile=" + order[(c + p) % len(order)],
                                "seed": rng.randrange(1, 1 << 31),
                                "refs": OFFLINE_REFS[cli]})
    return invocations


def simulated_refs(inv):
    """References one invocation simulates (per the CLI's design)."""
    refs = inv["refs"]
    return {"design_space_explorer": 24 * refs,
            "memory_system_planner": 4 * refs,
            "pin_budget_planner": refs,
            "linesize_advisor": 5 * refs,
            "unified_report": 6 * (refs // 2) + 5 * refs + 2 * refs}[inv["cli"]]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


# ------------------------------------------------------------------
# Served workloads
# ------------------------------------------------------------------

def load(daemon, work, tag, requests, clients, seconds=None, schedule=None,
         first=0, expect_dir=None, save_dir=None, trace_out=None, cpu=None,
         healthz=0):
    out = work / f"load_{tag}.json"
    args = ["load", "--port", str(daemon.port), "--requests", str(requests),
            "--clients", str(clients), "--first", str(first), "--out", str(out)]
    args += ["--once"] if seconds is None else ["--seconds", str(seconds)]
    if schedule:
        args += ["--schedule", str(schedule)]
    if expect_dir:
        args += ["--expect-dir", str(expect_dir)]
    if save_dir:
        save_dir.mkdir(parents=True, exist_ok=True)
        args += ["--save-dir", str(save_dir)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    if cpu:
        args += ["--cpu-pid", str(cpu[0]), "--window", str(cpu[1])]
    if healthz:
        args += ["--healthz", str(healthz)]
    proc = run_tool(args)
    if proc.returncode == 2 or not out.exists():
        raise BenchError(f"load generator failed: {proc.stderr.strip()}")
    result = json.loads(out.read_text())
    for error in result["errors"]:
        log(f"  op failed: {error}")
    return result


def reference(requests, first, count, out_dir, compare=False):
    """The offline reference for requests [first, first + count), made
    by `perfbench_tool reference` with the calls `uatm_client --offline`
    makes, in one process.  Writes <index>.ndjson, or with compare
    checks the replies saved there; returns how many differ."""
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ["reference", "--requests", str(requests), "--first", str(first),
            "--count", str(count), "--threads", str(NPROC), "--out-dir", str(out_dir)]
    proc = run_tool(args + (["--compare"] if compare else []))
    if proc.returncode not in (0, 1):
        raise BenchError(f"reference run failed: {proc.stderr.strip()}")
    for line in proc.stderr.splitlines():
        log("  " + line)
    return json.loads(proc.stdout)["mismatches"]


def block_tail(latencies, block):
    """The tail over blocks of `block` consecutive ops (ten samples
    beyond it in each), median over blocks; over all ops when there are
    fewer than one block's worth.  Returns (ms, percentile, samples)."""
    blocks = [latencies[i:i + block] for i in range(0, len(latencies) - block + 1, block)]
    if not blocks:
        return tail(latencies)
    return statistics.median(tail(b)[0] for b in blocks), tail(blocks[0])[1], block


def calm(steals):
    """Indices of the windows to report: those in which the hypervisor
    stole at most STEAL_LIMIT of the host's CPU time, or all of them
    when fewer than a quarter qualify (a run-long episode is reported
    as measured, not hidden)."""
    quiet = [i for i, steal in enumerate(steals) if steal <= STEAL_LIMIT]
    return quiet if 4 * len(quiet) >= len(steals) else list(range(len(steals)))


def summarize(windows, block):
    """Medians over the reported windows.  Each window is a dict with
    latencies (ms), rows, seconds, cpu_ms (or None) and steal."""
    used = [windows[i] for i in calm([w["steal"] for w in windows])]
    latencies = [latency for w in used for latency in w["latencies"]]
    value, percentile, samples = block_tail(latencies, block)
    cpu = [w["cpu_ms"] / len(w["latencies"]) for w in used if w["cpu_ms"] is not None]
    return {"windows": len(windows), "windows_used": len(used),
            "p50_ms": statistics.median(latencies),
            "ops_per_s": statistics.median(len(w["latencies"]) / w["seconds"] for w in used),
            "points_per_s": statistics.median(w["rows"] / w["seconds"] for w in used),
            "cpu_ms_per_op": statistics.median(cpu) if cpu else 0.0,
            "tail_ms": value, "tail_pct": percentile, "tail_samples": samples}


def windowed(ops, samples, window, wall):
    """Cuts a served loop into its full windows, so a short stall on a
    shared host moves one window, not the run.  ops are (end seconds,
    latency ms, rows); samples are (seconds, daemon CPU seconds, host
    steal jiffies, host jiffies) at each window boundary."""
    count = max(1, int(wall / window + 1e-9))
    windows = [{"latencies": [], "rows": 0, "seconds": window, "cpu_ms": None, "steal": 0.0}
               for _ in range(count)]
    for end, latency, rows in ops:
        if int(end / window) < count:
            windows[int(end / window)]["latencies"].append(latency)
            windows[int(end / window)]["rows"] += rows
    for i, w in enumerate(windows):
        if i + 1 < len(samples):
            w["cpu_ms"] = 1e3 * (samples[i + 1][1] - samples[i][1])
            w["steal"] = (samples[i + 1][2] - samples[i][2]) / max(samples[i + 1][3] - samples[i][3], 1)
    return summarize([w for w in windows if w["latencies"]], TAIL_BLOCK)


def timed_load(daemon, work, tag, requests, clients, seconds, **kwargs):
    """One measured closed loop; the daemon's CPU and VmHWM come from /proc."""
    window = seconds / WINDOWS
    result = load(daemon, work, tag, requests, clients, seconds,
                  cpu=(daemon.proc.pid, window), **kwargs)
    ops = sorted(result["ops"], key=lambda op: op[3])
    if not ops:
        raise BenchError(f"no op completed in {seconds} s")
    latencies = [(end - start) / 1e6 for _, _, start, end, _, _, _ in ops]
    stats = windowed([(op[3] / 1e9, latency, op[5]) for op, latency in zip(ops, latencies)],
                     [(t / 1e9, cpu, steal, total) for t, cpu, steal, total in result["cpu_samples"]],
                     window, result["wall_s"])
    stats.update({"ops": len(ops), "failed": sum(1 for op in ops if not op[6]),
                  "latencies": latencies, "wall_s": result["wall_s"],
                  "peak_rss_mb": daemon.peak_rss_mb(),
                  "requests": sorted({op[0] for op in ops}),
                  "healthz_ms": result["healthz_ms"],
                  "incomplete": result["exhausted"] or not result["saved"]})
    return stats


def check_cold_replies(requests, stats, work, tag):
    """Every cold reply must equal the offline reference; each cold
    request is sent once, so a differing request is one failed op."""
    first, last = stats["requests"][0], stats["requests"][-1]
    stats["failed"] += reference(requests, first, last - first + 1, work / tag, compare=True)
    if stats["incomplete"]:
        log("  request list exhausted or replies not saved")
        stats["failed"] = stats["ops"]


def golden_check(workload, digest):
    stored = json.loads((HERE / "golden.json").read_text()).get(workload)
    if stored != digest:
        log(f"  golden digest mismatch for {workload}: {digest} != {stored}")
        return False
    return True


def golden_digest(workload, work):
    """SHA-256 of the simulated outputs for the default seed's first
    inputs: 4 cold requests, the warm pool, or one pass of the CLIs."""
    if workload == "offline_sweep":
        outputs = [run_cli(inv, NPROC, work, "golden")[2] or b""
                   for inv in offline_invocations(DEFAULT_SEED)[:len(CLIS)]]
        return hashlib.sha256(b"".join(outputs)).hexdigest()
    if workload == "served_cold":
        bodies = cold_requests(DEFAULT_SEED, COLD_GOLDEN_REQUESTS)
    else:
        bodies = warm_pool(DEFAULT_SEED)
    requests = write_lines(work / "golden_requests.ndjson", bodies)
    out_dir = work / "golden"
    reference(requests, 0, len(bodies), out_dir)
    return sha256_files(out_dir / f"{i}.ndjson" for i in range(len(bodies)))


def daemon_request_ms(before, after):
    """Mean serve.request latency between two scrapes (the exposition's
    power-of-two buckets are too coarse for a p50)."""
    count = after["uatm_serve_request_ns_count"] - before["uatm_serve_request_ns_count"]
    total = after["uatm_serve_request_ns_sum"] - before["uatm_serve_request_ns_sum"]
    return total / count / 1e6 if count else 0.0


def run_served(workload, seed, seconds, trace, work):
    cold = workload == "served_cold"
    clients = 2 if cold else NPROC
    record = {"clients": clients, "loop": "closed"}
    correct = golden_check(workload, golden_digest(workload, work))
    setups = []
    schedule = expect = None
    if cold:
        # More never-seen requests than any run can send.
        requests = write_lines(work / "requests.ndjson",
                               cold_requests(seed, COLD_MAX_REQUESTS))
        daemon = Daemon(work, clients)
    else:
        bodies = warm_pool(seed)
        requests = write_lines(work / "requests.ndjson", bodies)
        schedule = write_lines(work / "schedule.txt", map(str, warm_schedule(
            seed, WARM_SCHEDULE_LENGTH)))
        once = write_lines(work / "once.txt", map(str, range(len(bodies))))
        expect = work / "expected"
        reference(requests, 0, len(bodies), expect)
        daemon = Daemon(work, clients, work / "cache_dir")

    try:
        if cold:
            for _ in range(COLD_SETUP_REPEATS):
                daemon.stop()
                setups.append(daemon.start())
        else:
            # Populate the on-disk cache, then time warm restarts from it:
            # exec until every pool request has been answered once.
            daemon.start()
            populate = load(daemon, work, "populate", requests, clients,
                            schedule=once, expect_dir=expect)
            correct = correct and all(op[6] for op in populate["ops"])
            for _ in range(SETUP_REPEATS):
                daemon.stop()
                start = time.perf_counter()
                daemon.start()
                restart = load(daemon, work, "restart", requests, clients,
                               schedule=once, expect_dir=expect)
                setups.append(time.perf_counter() - start)
                correct = correct and all(op[6] for op in restart["ops"])

        first = 0
        if cold:
            # The first sweep pays the daemon's lazy initialisation;
            # keep it out of the measured loop.
            first = 1
            warmup = load(daemon, work, "warmup", requests, 1, schedule=write_lines(
                work / "warmup.txt", ["0"]))
            correct = correct and all(op[6] for op in warmup["ops"])
        options = {"schedule": schedule, "expect_dir": expect}
        m0 = daemon.metrics()
        main = timed_load(daemon, work, "main", requests, clients,
                          seconds / 2 if trace else seconds, first=first,
                          save_dir=work / "replies" if cold else None, **options)
        m1 = daemon.metrics()
        if cold:
            check_cold_replies(requests, main, work, "replies")
        if trace:
            traced = timed_load(daemon, work, "traced", requests, clients, seconds / 2,
                                first=main["requests"][-1] + 1 if cold else 0,
                                save_dir=work / "replies_traced" if cold else None,
                                trace_out=work / "http_spans.json",
                                healthz=HEALTHZ_SAMPLES, **options)
            m2 = daemon.metrics()
            if cold:
                check_cold_replies(requests, traced, work, "replies_traced")
    finally:
        daemon.stop()

    record["setup_samples_s"] = setups
    result = {"setup_s": statistics.median(setups), "main": main, "record": record,
              "correct": correct}
    if not trace:
        return result

    hits = m2["uatm_serve_cache_hits"] - m0["uatm_serve_cache_hits"]
    lookups = hits + m2["uatm_serve_cache_misses"] - m0["uatm_serve_cache_misses"]
    computed = m2["uatm_serve_points_computed"] - m0["uatm_serve_points_computed"]
    # Cold prices every replayed point twice (replay, then the service);
    # warm records ~15 spans per request, so its replay is kept short.
    layers = run_layers(workload, work, requests, schedule, clients,
                        seconds / 3 if cold else seconds / 5)
    client_ms = statistics.mean(main["latencies"])
    daemon_ms = daemon_request_ms(m0, m1)
    service_ms = layers["service_ms_mean"]
    rtt_ms = statistics.median(traced["healthz_ms"])
    transport = client_ms - daemon_ms
    queue = daemon_ms - service_ms
    result["layers"] = layers
    result["traced"] = traced
    result["per_layer"] = {
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache_lookups": lookups,
        "serve.service_ms_per_request": service_ms,
        "serve.queue_wait_ms": queue,
        "serve.transport_ms_per_request": transport,
        "serve.http_roundtrip_ms": rtt_ms,
        "sim_refs_per_s": computed * (COLD_REFS if cold else WARM_REFS)
                          / (main["wall_s"] + traced["wall_s"]),
    }
    # The layers on a request's blocking path: the HTTP round trip
    # (timed on /healthz), the server's parse and emit (outside
    # serve.request), the queue, and the replayed layers inside
    # serve.request.  Only the queue is a residual (daemon - service),
    # so the gap is (client - daemon - http - parse - emit) + (service -
    # replayed layers): it shows time missing on either side.
    outside = rtt_ms + layers["parse_ms_mean"] + layers["emit_ms_mean"]
    result["reconcile"] = {"latency_mean_ms": client_ms,
                           "layer_sum_ms": outside + queue + layers["path_ms_mean"],
                           "http_roundtrip_ms": rtt_ms,
                           "parse_ms": layers["parse_ms_mean"],
                           "emit_ms": layers["emit_ms_mean"], "queue_ms": queue,
                           "service_layers_ms": layers["path_ms_mean"],
                           "daemon_request_ms": daemon_ms, "service_ms": service_ms}
    return result


def run_layers(workload, work, requests, schedule, clients, seconds):
    out = work / "layers.json"
    args = ["layers", "--workload", workload, "--requests", str(requests),
            "--threads", str(NPROC), "--clients", str(clients),
            "--seconds", str(seconds), "--work-dir", str(work),
            "--trace-out", str(work / "layer_spans.json"), "--out", str(out)]
    if schedule:
        args += ["--schedule", str(schedule)]
    proc = run_tool(args)
    if proc.returncode != 0:
        raise BenchError(f"layer replay failed: {proc.stderr.strip()}")
    return json.loads(out.read_text())


# ------------------------------------------------------------------
# Offline workload
# ------------------------------------------------------------------

def cli_argv(inv, threads, out_csv):
    return [str(cli_path(inv["cli"])), "--workload", inv["workload"],
            "--seed", str(inv["seed"]), "--refs", str(inv["refs"]),
            "--threads", str(threads), "--format", "csv", "--out", str(out_csv)]


def run_cli(inv, threads, work, tag):
    """One invocation; returns (wall s, rusage, stdout+csv bytes, rows)."""
    stdout_path = work / f"{tag}.stdout"
    csv_path = work / f"{tag}.csv"
    with open(stdout_path, "wb") as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen(cli_argv(inv, threads, csv_path), stdout=stdout,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = stdout_path.read_bytes() + b"\0" + (csv_path.read_bytes() if csv_path.exists() else b"")
    rows = max(0, len(csv_path.read_text().splitlines()) - 1) if csv_path.exists() else 0
    return wall, usage, output if proc.returncode == 0 else None, rows


def startup_seconds(work):
    """Exec-to-exit of all five CLIs on a tiny input (--refs 100): the
    per-invocation set-up, including the programs' lazy first-use
    initialisation, with no simulation to speak of."""
    totals = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for cli in CLIS:
            inv = {"cli": cli, "workload": "spec92:profile=nasa7", "seed": 1, "refs": 100}
            wall, _, output, _ = run_cli(inv, NPROC, work, "setup")
            if output is None:
                raise BenchError(f"{cli} failed on a tiny input")
            total += wall
        totals.append(total)
    return totals


def offline_loop(invocations, expected, seconds, work, tag, spans=None):
    """Whole passes of the five CLIs, one invocation at a time, until
    the time is up; each pass is one window."""
    latencies, windows, rss, refs, failed, k = [], [], [], 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        steal0, total0 = cpu_ticks()
        window = {"latencies": [], "rows": 0, "cpu_ms": 0.0}
        for _ in CLIS:
            inv = invocations[k % len(invocations)]
            begin = time.perf_counter()
            wall, usage, output, rows = run_cli(inv, NPROC, work, tag)
            if spans is not None:
                spans.append({"name": "exec", "ph": "X", "pid": 3, "tid": 1,
                              "ts": 1e6 * (begin - start), "dur": 1e6 * wall,
                              "args": {"request": k + 1, "cli": inv["cli"]}})
            latencies.append(1e3 * wall)
            window["latencies"].append(1e3 * wall)
            window["cpu_ms"] += 1e3 * (usage.ru_utime + usage.ru_stime)
            window["rows"] += rows
            rss.append(usage.ru_maxrss / 1024.0)
            refs += simulated_refs(inv)
            if output is None or output != expected[k % len(invocations)]:
                failed += 1
                log(f"  {inv['cli']} output differs from its --threads 1 run")
            k += 1
        steal1, total1 = cpu_ticks()
        window["seconds"] = time.perf_counter() - pass_start
        window["steal"] = (steal1 - steal0) / max(total1 - total0, 1)
        windows.append(window)
    # One tail block is one cycle through the invocation list, so every
    # CLI and profile weighs the same in it.
    stats = summarize(windows, len(invocations))
    stats.update({"ops": k, "failed": failed, "latencies": latencies,
                  "wall_s": time.perf_counter() - start, "peak_rss_mb": max(rss),
                  "sim_refs": refs})
    return stats


def replay_mismatches(invocations, expected, checks):
    """Compare the layer replay's outputs with the CLIs' --threads 1
    outputs: each checked result-table column with the CSV's, each
    narrative line with stdout.  Returns how many invocations differ."""
    if len(checks) != len(invocations):
        raise BenchError(f"layer replay checked {len(checks)} of {len(invocations)} invocations")
    differ = 0
    for inv, check, output in zip(invocations, checks, expected):
        stdout, _, table = output.partition(b"\0")
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        text = stdout.decode()
        wrong = [name for name, cells in check["columns"].items()
                 if [row.get(name) for row in rows] != cells]
        wrong += [repr(line) for line in check["lines"] if line not in text]
        if wrong:
            differ += 1
            log(f"  layer replay of {inv['cli']} {inv['workload']} differs from the CLI: "
                + ", ".join(wrong))
    return differ


def run_offline(seed, seconds, trace, work):
    correct = golden_check("offline_sweep", golden_digest("offline_sweep", work))

    invocations = offline_invocations(seed)
    # The --threads 1 references are set-up, not measured: run them
    # side by side.
    with ThreadPoolExecutor(NPROC) as pool:
        expected = list(pool.map(lambda i: run_cli(invocations[i], 1, work, f"reference{i}")[2],
                                 range(len(invocations))))
    if any(output is None for output in expected):
        raise BenchError("a --threads 1 reference invocation failed")
    setups = startup_seconds(work)
    record = {"clients": 1, "loop": "closed", "setup_samples_s": setups}

    main = offline_loop(invocations, expected, seconds / 2 if trace else seconds, work, "main")
    result = {"setup_s": statistics.median(setups), "main": main, "record": record,
              "correct": correct}
    if trace:
        spans = []
        traced = offline_loop(invocations, expected, seconds / 2, work, "traced", spans)
        (work / "exec_spans.json").write_text(json.dumps({"traceEvents": spans}))
        requests = write_lines(work / "invocations.ndjson",
                               (json.dumps(inv) for inv in invocations))
        layers = run_layers("offline_sweep", work, requests, None, 1, seconds / 2)
        startup_ms = 1e3 * statistics.median(setups) / len(CLIS)
        result["layers"] = layers
        result["traced"] = traced
        result["replay"] = {"checked": len(layers["checks"]),
                            "failed": replay_mismatches(invocations, expected, layers["checks"])}
        result["per_layer"] = {
            "serve.cache_hit_ratio": 0.0, "serve.cache_lookups": 0,
            "serve.service_ms_per_request": 0.0, "serve.queue_wait_ms": 0.0,
            "serve.transport_ms_per_request": 0.0, "serve.http_roundtrip_ms": 0.0,
            "sim_refs_per_s": (main["sim_refs"] + traced["sim_refs"])
                              / (main["wall_s"] + traced["wall_s"]),
        }
        result["reconcile"] = {"latency_mean_ms": statistics.mean(main["latencies"]),
                               "layer_sum_ms": startup_ms + layers["path_ms_mean"],
                               "startup_ms": startup_ms,
                               "cli_layers_ms": layers["path_ms_mean"]}
    return result


# ------------------------------------------------------------------
# Driver
# ------------------------------------------------------------------

def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def merge_traces(work, workload, seed):
    events = []
    for name in ("layer_spans.json", "http_spans.json", "exec_spans.json"):
        path = work / name
        if path.exists():
            events += json.loads(path.read_text())["traceEvents"]
    out = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events}))
    return out


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result line dict, record dict)."""
    spec = bench_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = ROOT / ".bench_build" / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = host_record(seed)
    record["workload"] = workload
    steal0, total0 = cpu_ticks()
    try:
        if workload == "offline_sweep":
            outcome = run_offline(seed, seconds, trace, work)
        else:
            outcome = run_served(workload, seed, seconds, trace, work)
        if trace:
            record["trace_file"] = str(merge_traces(work, workload, seed).relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()[0]
    steal1, total1 = cpu_ticks()
    record["cpu_steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    record.update(outcome["record"])

    main = outcome["main"]
    runs = [main] + ([outcome["traced"]] if trace else [])
    # A replayed invocation whose outputs differ from the CLI's is a
    # failed op of the traced run.
    replay = outcome.get("replay", {"checked": 0, "failed": 0})
    attempted = sum(r["ops"] for r in runs) + replay["checked"]
    failed = sum(r["failed"] for r in runs) + replay["failed"]
    record["latency_tail"] = {"percentile": main["tail_pct"], "samples": main["tail_samples"]}
    record["windows"] = {"total": main["windows"], "used": main["windows_used"],
                         "steal_limit": STEAL_LIMIT}
    if trace:
        layers = outcome["layers"]
        reconcile = outcome["reconcile"]
        reconcile["latency_p50_ms"] = main["p50_ms"]
        gap = (reconcile["latency_mean_ms"] - reconcile["layer_sum_ms"]) / reconcile["latency_mean_ms"]
        reconcile["gap_frac"] = gap
        reconcile["tolerance"] = RECONCILE_TOLERANCE
        reconcile["flagged"] = abs(gap) > RECONCILE_TOLERANCE
        record["reconcile"] = reconcile
        values = {k: v for k, v in layers.items() if k in units}
        values.update(outcome["per_layer"])
        values["obs.trace_overhead_frac"] = layers["trace_overhead_frac"]
        values["reconcile.gap_frac"] = gap
        values["failed_frac"] = failed / max(attempted, 1)
        values["latency_tail_pct"] = main["tail_pct"]
        values["latency_samples"] = main["tail_samples"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"setup_s": outcome["setup_s"],
                  "latency_p50_ms": main["p50_ms"],
                  "latency_tail_ms": main["tail_ms"],
                  "ops_per_s": main["ops_per_s"],
                  "points_per_s": main["points_per_s"],
                  "cpu_ms_per_op": main["cpu_ms_per_op"],
                  "peak_rss_mb": main["peak_rss_mb"]}
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    correct = outcome["correct"] and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def print_report(result, record):
    """Human-readable lines before the result JSON."""
    log(f"{record['workload']} seed={record['seed']} nproc={record['nproc']} "
        f"load {record['loadavg_start']:.2f}->{record['loadavg_end']:.2f} "
        f"steal {100 * record['cpu_steal_frac']:.1f}%")
    for name, metric in result["metrics"].items():
        log(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    reconcile = record.get("reconcile")
    if reconcile:
        flag = "  FLAGGED: gap over tolerance" if reconcile["flagged"] else ""
        log(f"  reconcile: layer sum {reconcile['layer_sum_ms']:.3f} ms vs latency mean "
            f"{reconcile['latency_mean_ms']:.3f} ms (p50 {reconcile['latency_p50_ms']:.3f} ms), gap "
            f"{reconcile['gap_frac']:+.3f} (tolerance {reconcile['tolerance']}){flag}")
    print(json.dumps({"record": record}))


def self_check():
    """Short runs that fail loudly when a workload stops exercising its layer."""
    spec = bench_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, record = run_workload(workload, DEFAULT_SEED, 2, trace)
            print_report(result, record)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if not got or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or wrong unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: failed_frac {result['failed']}/{result['attempted']}")
            if not trace:
                continue
            value = {k: v["value"] for k, v in result["metrics"].items()}
            if workload == "served_cold" and value["serve.cache_hit_ratio"] != 0.0:
                problems.append("served_cold: cache_hit_ratio is not 0")
            if workload == "served_warm" and value["serve.cache_hit_ratio"] != 1.0:
                problems.append("served_warm: cache_hit_ratio is not 1")
            if workload == "offline_sweep":
                for name in ("cache.simulate_ns_per_ref", "cpu.engine_ns_per_ref"):
                    if not value[name] > 0:
                        problems.append(f"offline_sweep: {name} is 0")
    for problem in problems:
        log("SELF-CHECK FAILED: " + problem)
    print(json.dumps({"self_check": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def write_golden():
    """Record golden.json; only when a change means to alter outputs."""
    digests = {}
    work = ROOT / ".bench_build" / "work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in [w["name"] for w in bench_spec()["workloads"]]:
            digests[workload] = golden_digest(workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests))
    return 0


def main():
    # A SIGTERM unwinds through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_check:
            return self_check()
        if args.write_golden:
            return write_golden()
        names = [w["name"] for w in bench_spec()["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {', '.join(names)}")
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as error:
        log(f"perfbench: {error}")
        return 2
    print_report(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bolt benchmark: end-to-end metrics from the real CLI, per-layer metrics
from a traced in-process run.

    python3 boltbench/run.py --workload nat_zipf --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run builds the repository's
library, `bolt_cli` and the benchmark harness (Release) into .bench_build/.

--trace 0 runs the workload's `bolt_cli` commands as child processes,
repeats them for --seconds seconds, checks their outputs and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 runs `boltbench trace`,
which calls each layer's public functions on the same inputs, and reports
the per-layer metrics, the layer-share table and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record of a run
(host and build, checks, the workload record, the runt probe) goes to
.bench_build/results/. README.md explains every metric and workload.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
CLI = CMAKE_DIR / "bolt" / "bolt_cli"
HARNESS = CMAKE_DIR / "boltbench"

WORKLOADS = {
    "nat_zipf": "nat",
    "lb_failover": "lb",
    "nat_longrun_fleet": "nat",
    "nat_hunt": "nat",
}
HUNT_GENERATIONS = 40
HUNT_POPULATION = 4
HUNT_BUDGET = HUNT_GENERATIONS * HUNT_POPULATION + 1
# Each run repeats its timed commands at least MIN_REPS times, so every
# reported median has several samples, unless it has already lasted
# MAX_REP_SECONDS: a much slower program still ends in bounded time.
MIN_REPS = 3
MAX_REP_SECONDS = 90
# A child that runs this long is killed and counts as failed.
CHILD_TIMEOUT_S = 120
# Set-up runs per repetition, interleaved with the timed runs so that their
# median covers the whole run, not one short stretch of it.
SETUP_PER_REP = 3
# Fleet instances exit after this long without new pcap data (the pcap is
# complete before they start, so this is a fixed tail per instance).
IDLE_EXIT_MS = "20"


class BenchError(Exception):
    """A failure that leaves no result to report (build, host, usage)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and host record
# ---------------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "tools/bolt_cli.cpp"):
        if not (ROOT / need).exists():
            raise BenchError(f"{ROOT / need} is missing: run from the root of "
                             "a checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "bolt_cli",
                  "boltbench", "-j", jobs])
    with open(BUILD / "build.log", "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"build failed ({' '.join(step)}); see "
                                 f"{BUILD / 'build.log'}")


def cmake_cache():
    cache = {}
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """The checkout is not a git repository: identify the source by content."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "boltbench"):
        files += [p for p in (ROOT / sub).rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_record(mt_threads):
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitize = cache.get("BOLT_SANITIZE", "")
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"))
    if build_type != "Release" or sanitize or "-fsanitize" in flags:
        raise BenchError(f"refusing to report timings from a {build_type!r} "
                         f"build with sanitizers {sanitize!r}")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": version[0] if version else compiler,
        "cmake_build_type": build_type,
        "sanitizers": sanitize or "none",
        "commit": commit,
        "source_digest": source_digest(),
        "mt_threads": mt_threads,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Child:
    """One finished child process: wall and CPU time, peak RSS, exit code."""

    def __init__(self, argv, stdout=None):
        err_path = BUILD / "work" / "stderr.log"
        with open(stdout or os.devnull, "wb") as out, \
                open(err_path, "ab") as err:
            before = err.tell()
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=out,
                                    stderr=err)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.argv = [str(a) for a in argv]
        with open(err_path, "rb") as err:
            err.seek(before)
            lines = err.read().decode(errors="replace").strip().splitlines()
        self.stderr_tail = lines[-1][:300] if lines else ""

    def describe(self):
        how = f"signal {-self.rc}" if self.rc < 0 else f"exit {self.rc}"
        return f"{' '.join(self.argv[1:3])}: {how} {self.stderr_tail}".strip()


class Tally:
    """Operations attempted and failed, checks that failed, peak RSS."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_mb = 0.0

    def saw(self, child):
        self.rss_mb = max(self.rss_mb, child.rss_mb)

    def check(self, ok, ops, failed_ops=0, problem=""):
        """`ops` operations ran; all failed unless `ok`, else `failed_ops`."""
        self.attempted += ops
        self.failed += failed_ops if ok else ops
        if (not ok or failed_ops) and len(self.problems) < 20:
            self.problems.append(problem)


def timed_reps(seconds, rep):
    t0 = time.monotonic()
    i = 0
    while True:
        rep(i)
        i += 1
        elapsed = time.monotonic() - t0
        if elapsed >= seconds and (i >= MIN_REPS or elapsed >= MAX_REP_SECONDS):
            return i


def on_alarm(signum, frame):
    raise TimeoutError


def median(values):
    return statistics.median(values)


def end_to_end(packets, samples, setup, replays=1):
    """The end-to-end metrics from per-repetition samples (medians)."""
    wall_1t = median(samples["wall_1t"])
    return {
        "pkts_per_s": packets / wall_1t,
        "pkts_per_s_mt": packets / median(samples["wall_mt"]),
        "cpu_ns_per_pkt_mt": median(samples["cpu_mt"]) * 1e9 / packets,
        "hunt_replays_per_s": replays / wall_1t,
        "setup_s": median(setup),
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare(workload, seed):
    work = BUILD / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (BUILD / "work" / "stderr.log").write_bytes(b"")
    for nf in ("nat", "lb"):
        if Child([CLI, "contract", nf, "--out", work / f"{nf}.json"]).rc != 0:
            raise BenchError(f"bolt_cli contract {nf} failed")
    if Child([HARNESS, "gen", workload, seed, work]).rc != 0:
        raise BenchError("boltbench gen failed")
    return work


def packet_count(work):
    return json.loads((work / "inputs.json").read_text())["packets"]


def report_facts(path):
    """Per-class counts and totals from a monitor report."""
    rep = json.loads(Path(path).read_text())
    packets = max(rep["packets"], 1)
    classes = {c["input_class"]: c["packets"] for c in rep["classes"]}

    def share_pm(*parts):
        hit = sum(n for cls, n in classes.items()
                  if any(p in cls for p in parts))
        return round(hit * 1000.0 / packets, 3)

    return {
        "packets": rep["packets"],
        "violations": rep["violations"],
        "unattributed": rep["unattributed"],
        "epoch_sweeps": rep["epoch_sweeps"],
        "state_high_water": rep["state_high_water"],
        "ring_walk_share_pm": share_pm("existing_unresponsive", "ring_select"),
        "new_flow_share_pm": share_pm("internal_new", "new_flow"),
        "class_packets": classes,
    }


def runt_probe(work):
    """A UDP/IPv4 frame cut to 20 bytes through `monitor nat` and `monitor
    lb`. A known defect, reported beside the metrics and kept out of the
    failure count and every timed workload."""
    out = {}
    for nf in ("nat", "lb"):
        child = Child([CLI, "monitor", nf, "--contract", work / f"{nf}.json",
                       "--pcap", work / "runt.pcap", "--threads", "1"])
        out[nf] = {
            "shell_rc": 128 - child.rc if child.rc < 0 else child.rc,
            "outcome": child.describe(),
        }
    return out


# ---------------------------------------------------------------------------
# Untraced workloads
# ---------------------------------------------------------------------------

def monitor_cmd(nf, work, pcap, threads, report):
    return [CLI, "monitor", nf, "--contract", work / f"{nf}.json", "--pcap",
            pcap, "--threads", threads, "--report", report]


def run_monitor(work, seconds, mt, tally, record):
    """nat_zipf and lb_failover: batch `monitor` at 1 thread and at mt."""
    nf = WORKLOADS[record["workload"]]
    packets = packet_count(work)
    reference = None
    samples = {"wall_1t": [], "wall_mt": [], "cpu_mt": []}

    def setup_once():
        child = Child(monitor_cmd(nf, work, work / "one.pcap", 1,
                                  work / "report_setup.json"))
        tally.saw(child)
        tally.check(child.rc == 0, 1, 0, f"setup {child.describe()}")
        return child.wall_s

    def monitor(threads):
        nonlocal reference
        report = work / f"report_{threads}.json"
        report.unlink(missing_ok=True)
        child = Child(monitor_cmd(nf, work, work / "main.pcap", threads,
                                  report))
        tally.saw(child)
        ok, bad, problem = child.rc == 0 and report.exists(), 0, \
            child.describe()
        if ok:
            facts = report_facts(report)
            data = report.read_bytes()
            reference = reference or data
            bad = facts["violations"] + facts["unattributed"]
            problem = f"{bad} violations/unattributed on clean traffic"
            if data != reference:
                ok, problem = False, f"report at --threads {threads} differs"
            elif facts["packets"] != packets:
                ok, problem = False, "report packet count differs"
        tally.check(ok, packets, bad, problem)
        return child

    setup = []

    def rep(_):
        setup.extend(setup_once() for _ in range(SETUP_PER_REP))
        samples["wall_1t"].append(monitor(1).wall_s)
        child = monitor(mt)
        samples["wall_mt"].append(child.wall_s)
        samples["cpu_mt"].append(child.cpu_s)

    record["reps"] = timed_reps(seconds, rep)
    record["samples"] = dict(samples, setup=setup)
    if reference is not None:
        (work / "reference.json").write_bytes(reference)
        record["report"] = report_facts(work / "reference.json")
    if nf == "lb":
        # Known behaviour: at the default 8 partitions each backend's
        # heartbeats reach one partition only; 1 partition is the contrast.
        one_part = work / "report_p1.json"
        Child(monitor_cmd(nf, work, work / "main.pcap", 1, one_part) +
              ["--partitions", "1"])
        if one_part.exists():
            record["report_partitions_1"] = report_facts(one_part)
    return end_to_end(packets, samples, setup)


def run_fleet(work, seconds, mt, tally, record):
    """nat_longrun_fleet: two `monitor --follow --fleet I/2 --spool`
    instances, one after the other, then `merge`."""
    packets = packet_count(work)
    contract = work / "nat.json"
    batch = work / "batch.json"
    child = Child([CLI, "monitor", "nat", "--contract", contract, "--pcap",
                   work / "main.pcap", "--no-cycles", "--threads", "1",
                   "--report", batch])
    ok = child.rc == 0 and batch.exists()
    tally.check(ok, packets, 0, f"reference batch run: {child.describe()}")
    reference = batch.read_bytes() if ok else None
    if ok:
        record["report"] = report_facts(batch)
    samples = {"wall_1t": [], "wall_mt": [], "cpu_mt": []}

    def fleet(threads, pcap):
        spool = work / "spool"
        shutil.rmtree(spool, ignore_errors=True)
        merged = work / "merged.json"
        merged.unlink(missing_ok=True)
        children = []
        for i in range(2):
            children.append(Child([
                CLI, "monitor", "nat", "--contract", contract, "--pcap", pcap,
                "--no-cycles", "--follow", "--idle-exit-ms", IDLE_EXIT_MS,
                "--fleet", f"{i}/2", "--spool", spool, "--delta-out",
                work / f"delta{i}.jsonl", "--threads", threads]))
        children.append(Child([CLI, "merge", "nat", "--spool", spool,
                               "--report", merged]))
        for c in children:
            tally.saw(c)
        failed = [c.describe() for c in children if c.rc != 0]
        return children, merged, failed

    def setup_once():
        children, _, failed = fleet(1, work / "one.pcap")
        tally.check(not failed, 1, 0, f"setup {failed}")
        return sum(c.wall_s for c in children)

    setup = []

    def rep(_):
        setup.extend(setup_once() for _ in range(SETUP_PER_REP))
        for threads in (1, mt):
            children, merged, failed = fleet(threads, work / "main.pcap")
            ok = not failed and merged.exists() and \
                merged.read_bytes() == reference
            problem = str(failed) if failed else \
                f"merged fleet report at --threads {threads} differs from " \
                "the batch --no-cycles report"
            bad = 0
            if ok:
                facts = report_facts(merged)
                bad = facts["violations"] + facts["unattributed"]
                problem = f"{bad} violations/unattributed on clean traffic"
            tally.check(ok, packets, bad, problem)
            wall = sum(c.wall_s for c in children)
            if threads == 1:
                samples["wall_1t"].append(wall)
            else:
                samples["wall_mt"].append(wall)
                samples["cpu_mt"].append(sum(c.cpu_s for c in children))

    record["reps"] = timed_reps(seconds, rep)
    record["samples"] = dict(samples, setup=setup)
    return end_to_end(packets, samples, setup)


def run_hunt(work, seconds, mt, tally, record):
    """nat_hunt: `bolt_cli hunt nat` with a fixed budget and no --contract,
    at 1 thread and at mt."""
    reference = None
    samples = {"wall_1t": [], "wall_mt": [], "cpu_mt": [], "pkts": []}

    def hunt(threads, generations):
        out = work / f"hunt_{threads}_{generations}.json"
        child = Child([CLI, "hunt", "nat", "--seed", record["seed"],
                       "--generations",
                       generations, "--population", HUNT_POPULATION,
                       "--threads", threads, "--json"], stdout=out)
        tally.saw(child)
        return child, out

    def setup_once():
        child, _ = hunt(1, 0)
        tally.check(child.rc == 0, 1, 0, f"setup {child.describe()}")
        return child.wall_s

    setup = []

    def rep(_):
        nonlocal reference
        setup.extend(setup_once() for _ in range(SETUP_PER_REP))
        for threads in (1, mt):
            child, out = hunt(threads, HUNT_GENERATIONS)
            data = out.read_bytes() if out.exists() else b""
            ok, problem, result = child.rc == 0, child.describe(), {}
            if ok:
                result = json.loads(data)
                reference = reference or data
                if data != reference:
                    ok, problem = False, \
                        f"hunt JSON at --threads {threads} differs"
                elif result["replays"] != HUNT_BUDGET:
                    ok, problem = False, \
                        f"hunt spent {result['replays']} of {HUNT_BUDGET}"
                elif result["violation_found"] or result["divergence_found"]:
                    ok, problem = False, "hunt reported a violation"
            tally.check(ok, HUNT_BUDGET, 0, problem)
            if threads == 1:
                samples["wall_1t"].append(child.wall_s)
            else:
                samples["wall_mt"].append(child.wall_s)
                samples["cpu_mt"].append(child.cpu_s)
            if result:
                samples["pkts"].append(result["replays"] * result["packets"])

    record["reps"] = timed_reps(seconds, rep)
    record["samples"] = dict(samples, setup=setup)
    if reference is not None:
        result = json.loads(reference)
        record["hunt"] = {k: result[k] for k in
                          ("replays", "packets", "fitness")}
    # Replayed packets: the budget times the best trace's length (children
    # differ from it by a few mutated packets).
    pkts = median(samples["pkts"]) if samples["pkts"] else 1
    return end_to_end(pkts, samples, setup, replays=HUNT_BUDGET)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(work, mt, tally, record):
    workload = record["workload"]
    nf = WORKLOADS[workload]
    no_cycles = ["--no-cycles"] if workload == "nat_longrun_fleet" else []
    for i in range(2):
        child = Child([CLI, "monitor", nf, "--contract", work / f"{nf}.json",
                       "--pcap", work / "main.pcap", "--follow",
                       "--idle-exit-ms", IDLE_EXIT_MS, "--fleet", f"{i}/2",
                       "--spool", work / "spool", "--threads", "1"]
                      + no_cycles)
        if child.rc != 0:
            tally.check(False, packet_count(work), 0,
                        f"spool for the traced run: {child.describe()}")
            return {}
    out = work / "trace.out"
    child = Child([HARNESS, "trace", workload, record["seed"], work, mt],
                  stdout=out)
    tally.saw(child)
    packets = packet_count(work)
    lines = out.read_text().splitlines() if out.exists() else []
    ok = child.rc == 0 and bool(lines)
    tally.check(ok, packets, 0, f"traced run: {child.describe()}")
    if not ok:
        return {}
    for line in lines[:-1]:
        print(line)
    record["layer_share_table"] = lines[:-1]
    record["spans_file"] = str((work / "spans.json").relative_to(ROOT))
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # the runt probe aborts
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        build()
        mt = len(os.sched_getaffinity(0))
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "host": host_record(mt)}
        work = prepare(args.workload, args.seed)
        record["inputs"] = json.loads((work / "inputs.json").read_text())
        record["runt_probe"] = runt_probe(work)
        tally = Tally()
        if args.trace:
            values = run_traced(work, mt, tally, record)
        else:
            runner = {"nat_zipf": run_monitor, "lb_failover": run_monitor,
                      "nat_longrun_fleet": run_fleet,
                      "nat_hunt": run_hunt}[args.workload]
            values = runner(work, args.seconds, mt, tally, record)
            values["peak_rss_mb"] = tally.rss_mb
    except BenchError as e:
        log(f"boltbench: {e}")
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not tally.problems:
        tally.problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    record["problems"] = tally.problems
    record["error_rate"] = tally.failed / max(tally.attempted, 1)
    record["metrics"] = metrics
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")

    probe = record["runt_probe"]
    print("known defect, runt probe (UDP/IPv4 frame cut to 20 bytes): " +
          "; ".join(f"monitor {nf} -> rc {p['shell_rc']}"
                    for nf, p in probe.items()))
    if "report" in record:
        r = record["report"]
        print(f"workload record: ring-walk share {r['ring_walk_share_pm']} pm, "
              f"new-flow share {r['new_flow_share_pm']} pm, epoch sweeps "
              f"{r['epoch_sweeps']}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

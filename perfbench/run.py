#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run builds the miner and the
benchmark from source into .bench_build/ (CMake, Release); later runs only
rebuild what changed. Inputs are generated from --seed into
.bench_build/inputs/ and the program sees only those files.

Workloads (README.md says why each exists and what it should move):
  dense_sample  in-process BorderCollapseMiner::Mine, dense matrix
  sparse_scan   in-process Mine, 25k sequences, sparse matrix; its traced
                run also mines the files through nmine_coordinator + 2
                workers for the dist.* layer
  serve_short   nmine_server, 4 closed-loop connections of short jobs

--trace 0 measures the end-to-end metrics; --trace 1 times the calls into
each layer from outside and writes the spans as Chrome-trace JSON under
.bench_build/traces/. Every result is checked against `nmine_cli mine
--csv` on the same files. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit status is 0 when every check passed, 1 when one failed, and 2
when the benchmark could not run (for example, the sources are missing).
"""

import argparse
import hashlib
import itertools
import http.client
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DEFAULT_SEED = 1
SAMPLING_SEED = 42  # nmine_cli's default --seed, the sample draw
SERVE_JOB_SEEDS = 8  # distinct job seeds per serve_short run

# Generated input sets and the mining flags every entry point gets for
# them. The flags use nmine_cli's names; nmbench and nmine_coordinator take
# the same ones, and the server spec maps them to JobSpec fields.
INPUTS = {
    "dense": {
        "gen": {"sequences": 2000, "min-len": 40, "max-len": 60,
                "alphabet": 12, "channel": "uniform", "alpha": 0.1,
                "plant-lengths": "5,5", "plant-prob": 0.3},
        "mine": {"threshold": 0.1, "sample": 1000, "delta": 1e-4,
                 "max-span": 10, "max-level": 10},
    },
    "sparse": {
        "gen": {"sequences": 25000, "min-len": 40, "max-len": 60,
                "alphabet": 50, "channel": "sparse", "compat": 0.1,
                "diag": 0.85, "plant-lengths": "4,6,8,10",
                "plant-prob": 0.35},
        "mine": {"threshold": 0.15, "sample": 300, "delta": 0.01,
                 "max-span": 12, "max-level": 12},
    },
    "serve": {
        "gen": {"sequences": 1000, "min-len": 40, "max-len": 60,
                "alphabet": 8, "channel": "uniform", "alpha": 0.1,
                "plant-lengths": "5,5", "plant-prob": 0.3},
        "mine": {"threshold": 0.2, "sample": 1000, "delta": 1e-4,
                 "max-span": 10, "max-level": 10},
    },
}
WORKLOADS = {"dense_sample": "dense", "sparse_scan": "sparse",
             "serve_short": "serve"}

END_TO_END = {"setup_s": "s", "mine_s": "s", "job_p50_s": "s",
              "job_tail_s": "s", "jobs_per_s": "1/s", "scans": "count",
              "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics but not in BENCHMARK.json: 4-thread
# runs of sub-second jobs on a shared 4-vCPU host swing by 30-100% with the
# neighbours' load, too much for any bound. exec.mine_s_t4 tracks it.
UNGATED = {"mine_s_t4": "s"}
PER_LAYER = {
    "mining.phase1_s": "s", "mining.phase2_s": "s", "mining.phase3_s": "s",
    "mining.cold_extra_s": "s", "lattice.records_ns_per_cs": "ns",
    "lattice.db_ns_per_cs": "ns", "lattice.candgen_s": "s",
    "lattice.candidates": "count", "lattice.ambiguous": "count",
    "core.simd_vs_scalar_x": "x", "db.open_s": "s",
    "db.decode_mb_per_s": "MB/s", "exec.phase2_speedup_t4": "x",
    "exec.count_speedup_t4": "x", "exec.mine_s_t4": "s",
    "dist.overhead_x": "x",
    "dist.coord_cpu_s": "s", "dist.worker_cpu_s": "s",
    "dist.worker_busy_frac": "frac", "dist.tasks": "count",
    "serve.ack_ms_p50": "ms", "serve.queue_wait_ms_p50": "ms",
    "serve.run_ms_p50": "ms", "serve.cpu_ms_per_job": "ms",
    "obs.trace_overhead_frac": "frac",
}

CHILDREN = []  # every process started, stopped on the way out


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def exe(name):
    return os.path.join(CMAKE_DIR, name)


# ------------------------------------------------------------------ build

def build():
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--parallel", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed:\n" + tail)


# ----------------------------------------------------------------- inputs

def flag_args(flags):
    args = []
    for k, v in flags.items():
        args += ["--" + k, str(v)]
    return args


def prepare(input_set, seed, mining_seeds):
    """Generates the input set for `seed` once and the reference CSV and
    scan count of `nmine_cli mine` for every sampling seed."""
    spec = INPUTS[input_set]
    d = os.path.join(BUILD, "inputs", "%s-%d" % (input_set, seed))
    if not os.path.exists(os.path.join(d, "info.json")):
        tmp = d + ".tmp%d" % os.getpid()
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        info = subprocess.run(
            [exe("nmbench"), "gen", "--db", os.path.join(tmp, "db.nmsq"),
             "--matrix", os.path.join(tmp, "matrix.txt"), "--seed", str(seed)]
            + flag_args(spec["gen"]), capture_output=True, text=True)
        if info.returncode != 0:
            raise BenchError("input generation failed: " + info.stderr)
        with open(os.path.join(tmp, "info.json"), "w") as f:
            f.write(info.stdout)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    paths = {"dir": d, "db": os.path.join(d, "db.nmsq"),
             "matrix": os.path.join(d, "matrix.txt")}
    with open(os.path.join(d, "info.json")) as f:
        paths["info"] = json.loads(f.read())

    base = [exe("nmine_cli"), "mine", paths["db"], "--matrix",
            paths["matrix"]] + flag_args(spec["mine"])
    todo = [s for s in mining_seeds
            if not os.path.exists(os.path.join(d, "ref-%d.csv" % s))]
    for i in range(0, len(todo), 2):  # four processes at a time
        pending = []
        for s in todo[i:i + 2]:
            csv = subprocess.Popen(base + ["--seed", str(s), "--csv"],
                                   stdout=subprocess.PIPE, text=True)
            table = subprocess.Popen(base + ["--seed", str(s)],
                                     stdout=subprocess.PIPE, text=True)
            pending.append((s, csv, table))
        outs = [(s, csv.communicate()[0], table.communicate()[0],
                 csv.returncode or table.returncode)
                for s, csv, table in pending]
        for s, csv_out, table_out, code in outs:
            if code:
                raise BenchError("nmine_cli mine failed for seed %d" % s)
            # First line: "frequent patterns: F   border: B   scans: S ..."
            scans = int(table_out.split("scans:")[1].split()[0])
            ref = os.path.join(d, "ref-%d.csv" % s)
            with open(ref + ".scans", "w") as f:
                f.write("%d\n" % scans)
            with open(ref + ".tmp", "w") as f:
                f.write(csv_out)
            os.rename(ref + ".tmp", ref)
    paths["ref"] = {}
    for s in mining_seeds:
        ref = os.path.join(d, "ref-%d.csv" % s)
        with open(ref) as f, open(ref + ".scans") as g:
            paths["ref"][s] = {"path": ref, "csv": f.read(),
                               "scans": int(g.read())}
    return paths


def digest(paths):
    h = hashlib.sha256()
    for s in sorted(paths["ref"]):
        h.update(paths["ref"][s]["csv"].encode())
    return h.hexdigest()


def rows_csv(rows):
    """The bytes nmine_cli's Table::PrintCsv writes for result rows."""
    def cell(c):
        if any(ch in c for ch in ',"\n'):
            return '"' + c.replace('"', '""') + '"'
        return c
    lines = ["pattern,value"] + [",".join(cell(c) for c in r) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- helpers

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, checks):
        """One measured run or job: every check that applies to it."""
        self.attempted += 1
        bad = [what for ok, what in checks if not ok]
        if bad:
            self.failed += 1
            self.failures.extend(bad[:3])

    def merge(self, out):
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.failures.extend(out["failures"])


class Tracer:
    """Bench-side spans: name, start, end, parent and run id, in memory."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.spans = []
        self.lock = threading.Lock()

    def add(self, name, start, end, parent=-1, run=0):
        with self.lock:
            self.spans.append((name, start, end, parent, run))
            return len(self.spans) - 1

    def events(self, pid):
        self_us = [(e - s) * 1e6 for _, s, e, _, _ in self.spans]
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                self_us[parent] -= (e - s) * 1e6
        out = []
        for i, (name, s, e, parent, run) in enumerate(self.spans):
            out.append({"name": name, "cat": "perfbench", "ph": "X",
                        "pid": pid, "tid": run, "ts": (s - self.t0) * 1e6,
                        "dur": (e - s) * 1e6,
                        "args": {"span_id": i, "parent": parent, "run": run,
                                 "self_us": self_us[i]}})
        return out


def tail(values):
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value, at percentile 100 * (1 - 10/n). It moves smoothly with
    the sample count, so a run a little faster or slower than the last does
    not jump to another percentile. The median, labelled as such, when
    there are fewer than 21 samples."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return statistics.median(v), "p50 (n=%d, fewer than 21)" % n
    return v[n - 11], "p%.1f (n=%d)" % (100.0 * (1 - 10.0 / n), n)


def spawn(cmd, out_path):
    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
    CHILDREN.append(p)
    return p


def reap(p, timeout, term_after=None):
    """Waits for `p` and returns its exit code and rusage. Sends SIGTERM
    after `term_after` s, if given, and SIGKILL after `timeout` s."""
    start = time.monotonic()
    signals = ([(term_after, signal.SIGTERM)] if term_after else []) + [
        (timeout, signal.SIGKILL)]
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            CHILDREN.remove(p)
            return p.returncode, ru
        if signals and time.monotonic() - start > signals[0][0]:
            p.send_signal(signals.pop(0)[1])
        time.sleep(0.001)


def wait_for_file(path, proc, timeout=30):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if proc.poll() is not None or time.monotonic() > deadline:
            raise BenchError("no %s from pid %d" % (path, proc.pid))
        time.sleep(0.0005)
    with open(path) as f:
        return [int(x) for x in f.read().split()]


def http_json(port, path):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        c.request("GET", path)
        return json.loads(c.getresponse().read())
    finally:
        c.close()


class Conn:
    """One line-JSON connection to the server or the coordinator."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.f = self.sock.makefile("rwb")

    def send(self, obj):
        self.f.write((json.dumps(obj) + "\n").encode())
        self.f.flush()

    def receive(self):
        line = self.f.readline()
        if not line:
            raise BenchError("peer closed the connection")
        return json.loads(line)

    def call(self, obj):
        self.send(obj)
        return self.receive()

    def close(self):
        self.f.close()
        self.sock.close()


def state_dir(tag):
    d = os.path.join(BUILD, "state", "%s-%d-%d" % (tag, os.getpid(),
                                                    time.monotonic_ns()))
    os.makedirs(d)
    return d


# -------------------------------------------------- in-process workloads

def run_nmbench(paths, seconds, trace, trace_out=None):
    seed = paths["sampling_seed"]
    cmd = [exe("nmbench"), "run", "--db", paths["db"], "--matrix",
           paths["matrix"], "--ref-csv", paths["ref"][seed]["path"],
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + flag_args(paths["mine"])
    if trace_out:
        cmd += ["--trace-out", trace_out]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("nmbench failed: " + out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def in_process(paths, seconds, seed, checks):
    """End-to-end metrics of an in-process workload: its 1-thread runs are
    the closed loop of one client."""
    out = run_nmbench(paths, seconds, 0)
    checks.merge(out)
    ref = paths["ref"][paths["sampling_seed"]]
    checks.run([(out["scans"] == ref["scans"], "scans differ from nmine_cli")])
    t1 = out["mine_s"]
    p, label = tail(t1)
    return {"setup_s": statistics.median(out["setup_s"]),
            "mine_s": statistics.median(t1),
            "mine_s_t4": statistics.median(out["mine_s_t4"]),
            "job_p50_s": statistics.median(t1), "job_tail_s": p,
            "jobs_per_s": len(t1) / sum(t1),
            "scans": out["scans"], "peak_rss_mb": out["peak_rss_mb"]}, {
                "job_tail_s": label}


# --------------------------------------- distributed jobs (dist.* layer)

WORKERS = 2


def dist_run(paths, checks, tracer, run):
    """One coordinator + WORKERS workers job, from launch to checked CSV."""
    sd = state_dir("dist")
    ref = paths["ref"][paths["sampling_seed"]]
    t0 = time.monotonic()
    co = spawn([exe("nmine_coordinator"), "--db", paths["db"], "--matrix",
                paths["matrix"], "--state-dir", sd, "--port-file",
                os.path.join(sd, "port"), "--statusz-port", "0", "--csv",
                "--log-level", "warn", "--seed", str(paths["sampling_seed"]),
                "--threads", "1"] + flag_args(paths["mine"]),
               os.path.join(sd, "coordinator.out"))
    port, sport = wait_for_file(os.path.join(sd, "port"), co)
    # The result comes from the coordinator's own "wait" op (what
    # `nmine_client wait --distributed` uses). It is asked before any worker
    # exists, so the job cannot finish first.
    waiter = Conn(port)
    waiter.send({"op": "wait"})
    tw = time.monotonic()
    workers = [spawn([exe("nmine_worker"), "--port", str(port), "--name",
                      "w%d" % i, "--log-level", "warn"],
                     os.path.join(sd, "worker%d.out" % i))
               for i in range(WORKERS)]
    setup = None
    while setup is None and co.poll() is None:
        try:
            if len(http_json(sport, "/shardz").get("workers", {})) >= WORKERS:
                setup = time.monotonic() - t0
        except (OSError, ValueError, http.client.HTTPException):
            pass
        time.sleep(0.001)
    done = waiter.receive()
    wall = time.monotonic() - t0
    waiter.close()
    result = done.get("result", {})
    code, co_ru = reap(co, 120)
    worker_ru, tasks = [], 0
    results = [(code == 0, "coordinator exited %d" % code),
               (setup is not None, "workers never connected"),
               (done.get("state") == "done" and result.get("ok"),
                "dist job ended %s" % done.get("state")),
               (rows_csv(result.get("rows", [])) == ref["csv"],
                "dist wait result differs from nmine_cli"),
               (result.get("scans") == ref["scans"],
                "dist scans %s, nmine_cli %d" % (result.get("scans"),
                                                 ref["scans"]))]
    for i, w in enumerate(workers):
        # A worker that did not poll between the result and the
        # coordinator's exit keeps redialling for its --timeout-s; stop it
        # the way an operator would once the job is done.
        wcode, ru = reap(w, 30, term_after=0.2)
        worker_ru.append(ru)
        results.append((wcode == 0, "worker %d exited %d" % (i, wcode)))
        with open(os.path.join(sd, "worker%d.out" % i)) as f:
            text = f.read()
        if "done (" in text:  # "nmine_worker: done (N tasks)"
            tasks += int(text.split("done (")[1].split()[0])
    with open(os.path.join(sd, "coordinator.out")) as f:
        results.append((f.read() == ref["csv"],
                        "dist CSV differs from nmine_cli"))
    checks.run(results)
    parent = tracer.add("dist.job", t0, t0 + wall, run=run)
    if setup is not None:
        tracer.add("dist.setup", t0, t0 + setup, parent, run)
    shutil.rmtree(sd, ignore_errors=True)
    cpu = lambda ru: ru.ru_utime + ru.ru_stime
    return {"wall": wall,
            "coord_cpu": cpu(co_ru), "worker_cpu": sum(map(cpu, worker_ru)),
            "worker_wall": t0 + wall - tw, "tasks": tasks}


# ------------------------------------------------------------ serve_short

CONNECTIONS = 4
MAX_RUNNING = 2
SOLO_SHARE = 0.3


def start_server(statusz=False, tracer=None):
    """Starts nmine_server; only the traced run asks for its statusz."""
    sd = state_dir("serve")
    t0 = time.monotonic()
    p = spawn([exe("nmine_server"), "--state-dir", sd, "--max-running",
               str(MAX_RUNNING), "--port-file", os.path.join(sd, "port"),
               "--log-level", "warn"] +
              (["--statusz-port", "0"] if statusz else []),
              os.path.join(sd, "server.out"))
    port, sport = (wait_for_file(os.path.join(sd, "port"), p) + [0])[:2]
    setup = time.monotonic() - t0
    if tracer is not None:
        tracer.add("serve.setup", t0, t0 + setup)
    return {"proc": p, "port": port, "statusz": sport, "setup": setup,
            "dir": sd}


def stop_server(server):
    server["proc"].send_signal(signal.SIGTERM)
    code, ru = reap(server["proc"], 30)
    shutil.rmtree(server["dir"], ignore_errors=True)
    return code, ru


def job_spec(paths, seed, threads):
    m = paths["mine"]
    return {"db": paths["db"], "matrix": paths["matrix"],
            "threshold": m["threshold"], "max_span": m["max-span"],
            "max_level": m["max-level"], "sample": m["sample"],
            "delta": m["delta"], "seed": seed, "threads": threads}


def serve_job(conn, paths, seed, threads, client, tag, checks, tracer=None,
              run=0):
    """Submit, wait, check. Returns (latency s, ack s)."""
    t0 = time.monotonic()
    ack = conn.call({"op": "submit", "client": client, "tag": tag,
                     "spec": job_spec(paths, seed, threads)})
    t_ack = time.monotonic()
    if not ack.get("ok"):
        checks.run([(False, "submit refused: %s" % ack)])
        return None, t_ack - t0
    done = conn.call({"op": "wait", "id": ack["id"]})
    t1 = time.monotonic()
    result = done.get("result", {})
    ref = paths["ref"][seed]
    checks.run([
        (done.get("state") == "done" and result.get("ok"),
         "job %s ended %s" % (ack["id"], done.get("state"))),
        (rows_csv(result.get("rows", [])) == ref["csv"],
         "job %s (seed %d) CSV differs from nmine_cli" % (ack["id"], seed)),
        (result.get("scans") == ref["scans"],
         "job %s scans %s, nmine_cli %d" % (ack["id"], result.get("scans"),
                                           ref["scans"]))])
    if tracer is not None:
        parent = tracer.add("serve.job", t0, t1, run=run)
        tracer.add("serve.submit_ack", t0, t_ack, parent, run)
    return t1 - t0, t_ack - t0


def closed_loop(server, paths, seeds, seconds, checks, tracer=None):
    """CONNECTIONS clients, each submitting its next job only after the
    previous result arrived, for `seconds`."""
    lat, acks, errors = [], [], []
    lock = threading.Lock()
    deadline = time.monotonic() + seconds

    def client(i):
        try:
            conn = Conn(server["port"])
            j = 0
            while time.monotonic() < deadline:
                seed = seeds[(i * 3 + j) % len(seeds)]
                latency, ack = serve_job(conn, paths, seed, 1, "c%d" % i,
                                         "c%d-%d-%d" % (i, j, os.getpid()),
                                         checks, tracer, i + 1)
                with lock:
                    if latency is not None:
                        lat.append(latency)
                    acks.append(ack)
                j += 1
            conn.close()
        except (OSError, ValueError, BenchError) as e:
            errors.append(str(e))

    start = time.monotonic()
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    for e in errors:
        checks.run([(False, "client: " + e)])
    return lat, acks, elapsed


def serve_seeds(seed):
    return [seed * 1000 + k for k in range(SERVE_JOB_SEEDS)]


def serve_short(paths, seconds, seed, checks):
    seeds = serve_seeds(seed)
    setup = []
    for _ in range(15):
        s = start_server()
        setup.append(s["setup"])
        stop_server(s)
    server = start_server()
    setup.append(server["setup"])
    try:
        # SOLO_SHARE of the budget goes to 1-thread jobs alone on the idle
        # server (mine_s), then three 4-thread ones (the ungated
        # mine_s_t4), and the rest to the closed loop.
        conn = Conn(server["port"])
        solo = {1: [], 4: []}
        jobs = itertools.count()

        def solo_job(threads):
            k = next(jobs)
            latency, _ = serve_job(conn, paths, seeds[k % len(seeds)],
                                   threads, "solo", "solo-%d-%d-%d" % (
                                       k, threads, os.getpid()), checks)
            if latency is not None:
                solo[threads].append(latency)

        start = time.monotonic()
        for k in itertools.count():
            if k >= 3 and time.monotonic() - start > SOLO_SHARE * seconds:
                break
            solo_job(1)
        for _ in range(3):
            solo_job(4)
        conn.close()
        lat, _, elapsed = closed_loop(server, paths, seeds,
                                      (1 - SOLO_SHARE) * seconds, checks)
    finally:
        code, ru = stop_server(server)
    checks.run([(code == 0, "server exited %d on SIGTERM" % code)])
    p, label = tail(lat)
    return {"setup_s": statistics.median(setup),
            "mine_s": statistics.median(solo[1]),
            "mine_s_t4": statistics.median(solo[4]),
            "job_p50_s": statistics.median(lat), "job_tail_s": p,
            "jobs_per_s": len(lat) / elapsed,
            "scans": statistics.median(paths["ref"][s]["scans"]
                                       for s in seeds),
            "peak_rss_mb": ru.ru_maxrss / 1024.0}, {"job_tail_s": label}


# ------------------------------------------------------------ traced runs

def layers(workload, paths, seconds, seed, checks, trace_path):
    """Per-layer metrics: the in-process layers on the workload's files
    (nmbench --trace 1), plus distributed jobs on sparse_scan's files and
    the server on serve_short."""
    tracer = Tracer()
    nm_trace = trace_path + ".nmbench"
    out = run_nmbench(paths, seconds, 1, nm_trace)
    checks.merge(out)
    m = dict(out["metrics"])
    mine_inproc = m.pop("mining.mine_s")
    for name in PER_LAYER:
        m.setdefault(name, 0.0)  # layers this workload does not exercise
    notes = {"core.simd_vs_scalar_x": "active kernel " + out["kernel"]}

    if workload == "sparse_scan":
        runs = []
        start = time.monotonic()
        while len(runs) < 3 or time.monotonic() - start < seconds:
            runs.append(dist_run(paths, checks, tracer, len(runs) + 1))
        med = lambda k: statistics.median(r[k] for r in runs)
        m["dist.overhead_x"] = med("wall") / mine_inproc
        m["dist.coord_cpu_s"] = med("coord_cpu")
        m["dist.worker_cpu_s"] = med("worker_cpu")
        m["dist.worker_busy_frac"] = statistics.median(
            r["worker_cpu"] / (WORKERS * r["worker_wall"]) for r in runs)
        m["dist.tasks"] = med("tasks")
    elif workload == "serve_short":
        seeds = serve_seeds(seed)
        server = start_server(statusz=True, tracer=tracer)
        try:
            lat, acks, _ = closed_loop(server, paths, seeds, seconds, checks,
                                       tracer)
            jobsz = http_json(server["statusz"], "/jobsz")
        finally:
            code, ru = stop_server(server)
        checks.run([(code == 0, "server exited %d on SIGTERM" % code)])
        m["serve.ack_ms_p50"] = statistics.median(acks) * 1e3
        m["serve.queue_wait_ms_p50"] = jobsz["latency"]["queue_wait_ms"]["p50"]
        m["serve.run_ms_p50"] = jobsz["latency"]["run_ms"]["p50"]
        m["serve.cpu_ms_per_job"] = (ru.ru_utime + ru.ru_stime) * 1e3 / len(
            lat)
        notes["serve.run_ms_p50"] = "%d jobs" % len(lat)

    with open(nm_trace) as f:
        events = json.load(f)["traceEvents"]
    os.remove(nm_trace)
    events += tracer.events(pid=2)
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    with open(trace_path.replace(".trace.json", ".layers.json"), "w") as f:
        json.dump(m, f, indent=1, sort_keys=True)
    notes["trace"] = os.path.relpath(trace_path, ROOT)
    return m, notes


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    input_set = WORKLOADS[args.workload]
    mining_seeds = (serve_seeds(args.seed) if input_set == "serve"
                    else [SAMPLING_SEED])
    paths = prepare(input_set, args.seed, mining_seeds)
    paths["mine"] = INPUTS[input_set]["mine"]
    paths["sampling_seed"] = mining_seeds[0]
    checks = Checks()

    # The recorded digest of the default seed's reference results; on any
    # other seed the per-run identity checks and the oracle stand alone.
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            want = json.load(f)[input_set]
        got = digest(paths)
        checks.run([(got == want, "%s digest %s, recorded %s" % (
            input_set, got, want))])

    os.makedirs(os.path.join(BUILD, "state"), exist_ok=True)
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", "%s-%d.trace.json" % (
            args.workload, args.seed))
        metrics, notes = layers(args.workload, paths, args.seconds,
                                args.seed, checks, trace_path)
        units = PER_LAYER
    else:
        run = {"dense_sample": in_process, "sparse_scan": in_process,
               "serve_short": serve_short}[args.workload]
        metrics, notes = run(paths, args.seconds, args.seed, checks)
        units = END_TO_END

    info = paths["info"]
    print("workload %s  seed %d  %d sequences  %d symbols  %d file bytes  "
          "matrix sparsity %.3f" % (args.workload, args.seed,
                                    info["sequences"], info["symbols"],
                                    info["file_bytes"],
                                    info["matrix_sparsity"]))
    shown = dict(units, **(UNGATED if units is END_TO_END else {}))
    for name in shown:
        note = notes.get(name, "not gated" if name in UNGATED else "")
        print("  %-26s %14.6g %-6s %s" % (name, metrics[name], shown[name],
                                          note))
    for k, v in notes.items():
        if k not in units:
            print("  %s: %s" % (k, v))
    print("  fail_frac %d/%d = %.4f" % (
        checks.failed, checks.attempted,
        checks.failed / max(1, checks.attempted)))
    for f in checks.failures[:10]:
        print("  FAILED: " + f)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in units}}
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


def stop_children():
    for p in list(CHILDREN):
        if p.poll() is None:
            p.kill()
        p.wait()


if __name__ == "__main__":
    try:
        code = main()
    except Exception as e:  # any failure to run is exit 2, with no result
        log("perfbench: %s: %s" % (type(e).__name__, e))
        code = 2
    finally:
        stop_children()
    sys.exit(code)

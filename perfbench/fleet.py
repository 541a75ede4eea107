"""serve-fleet workload: a real `mpe_cli serve --fleet` daemon, two
`campaign-worker` processes on loopback TCP, and a closed-loop load
generator speaking the mpe.server protocol (docs/SERVER.md)."""

import json
import os
import random
import signal
import socket
import subprocess
import threading
import time

import benchlib

CIRCUITS = ["c880", "c1908", "c3540", "c7552"]
CONNECTIONS = 3          # one more than --max-active: a job always waits
MAX_ACTIVE = 2
WORKERS = 2
EPSILON = 0.05           # every job of the mix converges at this commit
JOB_SEEDS = [1, 2, 3]    # small seed set: the circuit cache hits and misses
# Daemon + workers are brought up this many times a run, each serving an
# equal share of the load window: how idle workers' poll sleeps line up with
# the closed loop differs from one fleet to the next, and latency with it.
FLEETS = 6
JOB_TIMEOUT_S = 60.0
# The reported tail percentile: ~60 jobs fit a run, so p75 (40 samples).
TAIL_Q = 75


def _msg(kind, **fields):
    obj = {"schema": "mpe.server", "v": 1, "type": kind}
    obj.update(fields)
    return (json.dumps(obj) + "\n").encode()


class Connection:
    """One client connection; reads raw reply lines."""

    def __init__(self, port, name):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.reader = self.sock.makefile("rb")
        self.send(_msg("hello", client=name, proto=1))
        reply = self.recv(10)
        if reply["type"] != "welcome":
            raise RuntimeError("handshake refused: %r" % (reply,))

    def send(self, data):
        self.sock.sendall(data)

    def recv_raw(self, timeout):
        self.sock.settimeout(timeout)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line.rstrip(b"\n").decode()

    def recv(self, timeout):
        return json.loads(self.recv_raw(timeout))

    def request(self, kind, timeout=10):
        self.send(_msg(kind))
        while True:
            reply = self.recv(timeout)
            if reply["type"] not in ("event", "result"):
                return reply

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class Fleet:
    """One serve daemon with its workers, each with its own state dir."""

    def __init__(self, cli, run_dir):
        self.cli = cli
        self.run_dir = run_dir
        self.daemon = None
        self.workers = []
        self.port = None

    def start(self):
        os.makedirs(self.run_dir)
        log = open(os.path.join(self.run_dir, "daemon.out"), "wb")
        self.daemon = subprocess.Popen(
            [self.cli, "serve", "--tcp-port", "0", "--worker-port", "0",
             "--state-dir", os.path.join(self.run_dir, "server"), "--fleet",
             "--max-active", str(MAX_ACTIVE), "--trace-capacity", "0"],
            stdout=log, stderr=subprocess.STDOUT)
        log.close()
        client_port = worker_port = None
        deadline = time.monotonic() + 20
        while client_port is None or worker_port is None:
            if time.monotonic() > deadline or self.daemon.poll() is not None:
                raise RuntimeError("serve daemon did not start listening")
            with open(os.path.join(self.run_dir, "daemon.out")) as f:
                for line in f:
                    if line.startswith("listening worker tcp"):
                        worker_port = int(line.rsplit(":", 1)[1])
                    elif line.startswith("listening tcp"):
                        client_port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        self.port = client_port
        for i in range(WORKERS):
            wlog = open(os.path.join(self.run_dir, "worker%d.out" % i), "wb")
            self.workers.append(subprocess.Popen(
                [self.cli, "campaign-worker", "--tcp",
                 "127.0.0.1:%d" % worker_port, "--state-dir",
                 os.path.join(self.run_dir, "w%d" % i), "--worker-id",
                 "w%d" % i], stdout=wlog, stderr=subprocess.STDOUT))
            wlog.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.daemon.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM drains the daemon; workers exit on its drain reply."""
        procs = [p for p in [self.daemon] + self.workers if p is not None]
        if self.daemon is not None and self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20
        for p in procs:
            try:
                p.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.daemon = None
        self.workers = []


def probe_job(conn, job_id):
    """A small job whose result marks daemon and workers ready."""
    spec = json.dumps({"job": job_id, "circuit": "c432", "seed": 1,
                       "epsilon": 0.2, "delay": "zero"})
    conn.send(_msg("submit", id=job_id, spec=spec))
    while True:
        reply = conn.recv(JOB_TIMEOUT_S)
        if reply.get("id") == job_id and reply["type"] in ("result",
                                                            "rejected"):
            if reply.get("status") != "done":
                raise RuntimeError("probe job failed: %r" % (reply,))
            return


def job_mix(seed):
    """Endless sequence of manifest job specs (without the name): seeded
    shuffles of the fixed set CIRCUITS x JOB_SEEDS, one whole set after
    another, so every run sees the same mix of work in its own order."""
    rng = random.Random(seed)
    specs = [{"circuit": c, "seed": s, "epsilon": EPSILON, "delay": "zero"}
             for c in CIRCUITS for s in JOB_SEEDS]
    while True:
        rng.shuffle(specs)
        for spec in specs:
            yield dict(spec)


def run_one_job(conn, job_id, spec_obj):
    """Submits one job and waits for its terminal reply (closed loop)."""
    spec = json.dumps(dict({"job": job_id}, **spec_obj))
    rec = {"id": job_id, "spec": spec, "shards": 0}
    rec["t_submit"] = time.monotonic()
    conn.send(_msg("submit", id=job_id, spec=spec))
    deadline = rec["t_submit"] + JOB_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            rec["outcome"] = "timeout"
            return rec
        try:
            raw = conn.recv_raw(remaining)
        except socket.timeout:
            rec["outcome"] = "timeout"
            return rec
        now = time.monotonic()
        reply = json.loads(raw)
        if reply.get("id") != job_id:
            continue
        kind = reply["type"]
        if kind == "accepted":
            rec["t_accepted"] = now
        elif kind == "event" and reply.get("name") == "shard_done":
            rec["shards"] += 1
            rec.setdefault("t_first_shard", now)
            rec["t_last_shard"] = now
        elif kind == "rejected":
            rec["outcome"] = "rejected"
            return rec
        elif kind == "result":
            rec["t_result"] = now
            rec["line"] = raw
            rec["outcome"] = reply["status"]
            rec["latency_ms"] = (now - rec["t_submit"]) * 1000.0
            rec["hyper_samples"] = reply.get("hyper_samples", 0)
            rec["units"] = reply.get("units", 0)
            return rec


def closed_loop(port, mix, prefix, window_s, min_jobs):
    """CONNECTIONS clients, each sending its next submit only after the
    previous result, with specs drawn from the shared iterator `mix`. Runs
    for window_s and until min_jobs jobs finished. Returns (jobs, wall_s)."""
    lock = threading.Lock()
    jobs = []
    errors = []
    start = time.monotonic()
    hard_stop = start + window_s + 120

    def next_spec():
        with lock:
            return next(mix)

    def finished():
        now = time.monotonic()
        with lock:
            enough = now - start >= window_s and len(jobs) >= min_jobs
        return enough or now >= hard_stop

    def client(c):
        try:
            conn = Connection(port, "load%d" % c)
        except (OSError, RuntimeError, ValueError) as e:
            errors.append(repr(e))
            return
        try:
            n = 0
            while not finished():
                rec = run_one_job(conn, "%sc%d-%d" % (prefix, c, n),
                                  next_spec())
                n += 1
                with lock:
                    jobs.append(rec)
                if rec["outcome"] == "timeout":
                    break  # the connection's state is unknown now
        except (OSError, ValueError) as e:
            errors.append(repr(e))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError("load generator failed: %s" % "; ".join(errors))
    return jobs, time.monotonic() - start


def parse_scrape(text):
    out = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            pass
    return out


def reference_lines(harness, run_dir, jobs):
    """Result lines the in-process reference (run_campaign_job) gives."""
    path = os.path.join(run_dir, "reference_jobs.tsv")
    with open(path, "w") as f:
        for job in jobs:
            f.write("%s\t%s\n" % (job["id"], job["spec"]))
    state = os.path.join(run_dir, "reference_state")
    os.makedirs(state)
    out = subprocess.run([harness, "reference", "--jobs", path,
                          "--state-dir", state], check=True,
                         stdout=subprocess.PIPE, timeout=120).stdout
    return out.decode().splitlines()


def run(cli, harness, work_dir, seed, seconds, trace):
    """One serve-fleet run; returns the raw record run.py turns into
    metrics.

    The run brings a fresh daemon and workers up FLEETS times, timing each
    bring-up to a first answered probe job, and puts an equal share of the
    load window on each. In a traced run the daemon's stats and scrape are
    read before and after the load of every fleet but the first; the first
    fleet's jobs are the untraced baseline of the overhead ratio.
    """
    mix = job_mix(seed)
    per_fleet_min = -(-benchlib.min_samples(TAIL_Q) // FLEETS)
    setup_s, jobs, segments = [], [], []
    wall_s = rss = 0.0
    for i in range(FLEETS):
        fleet = Fleet(cli, os.path.join(work_dir, "fleet%d" % i))
        control = None
        try:
            t0 = time.monotonic()
            fleet.start()
            control = Connection(fleet.port, "control")
            probe_job(control, "probe")
            setup_s.append(time.monotonic() - t0)
            traced = trace and i > 0
            if traced:
                before = snapshot(control)
            seg_jobs, seg_wall = closed_loop(fleet.port, mix, "f%d-" % i,
                                             seconds / FLEETS, per_fleet_min)
            if traced:
                segments.append({"before": before, "after": snapshot(control)})
            for job in seg_jobs:
                job["traced"] = traced
            jobs += seg_jobs
            wall_s += seg_wall
            rss = max(rss, fleet.peak_rss_mb())
        finally:
            if control is not None:
                control.close()
            fleet.stop()

    checks = {"ok": True, "checked": [], "failures": []}
    done = [j for j in jobs if j["outcome"] == "done"]
    expected = reference_lines(harness, work_dir, done)
    mismatched = [j["id"] for j, ref in zip(done, expected)
                  if j["line"] != ref]
    if len(expected) != len(done) or mismatched:
        checks["ok"] = False
        checks["failures"].append({"detail": (
            "result_equals_in_process: %d of %d result lines differ from "
            "run_campaign_job (first: %s)" % (
                len(mismatched), len(done), mismatched[:1]))})
    checks["checked"].append("result_equals_in_process")
    return {"setup_s": setup_s, "jobs": jobs, "wall_s": wall_s,
            "segments": segments, "peak_rss_mb": rss, "checks": checks}


def snapshot(control):
    """The daemon's stats and scrape counters, read over `control`."""
    return {"stats": control.request("stats"),
            "scrape": parse_scrape(control.request("scrape")["text"])}

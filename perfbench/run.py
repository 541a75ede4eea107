#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the mpe library, mpe_cli and the
in-process harness (perfbench/harness.cpp) under .bench_build/perfbench on
first use, runs one workload, checks its outputs, prints every metric by
name with its unit, and ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits non-zero when the build or an output check fails.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source directory untouched

import benchlib  # noqa: E402
import fleet  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["stream-zero", "stream-loaded", "finite-paper", "serve-fleet"]
# Tail percentile per workload: the highest with >= 10 samples beyond it at
# the run length (in-process runs time >= 200 operations).
TAIL_Q = {"stream-zero": 95, "stream-loaded": 95, "finite-paper": 95,
          "serve-fleet": fleet.TAIL_Q}
THREADS = {"stream-zero": 1, "stream-loaded": 2, "finite-paper": 1}


def build():
    """Configures (once) and builds the benchmark tree; returns binaries."""
    for needed in ("src/CMakeLists.txt", "tools/mpe_cli.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise SystemExit("perfbench: %s is missing; run from a checkout "
                             "of the repository" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], check=True,
                           stdout=out, stderr=subprocess.STDOUT)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=out, stderr=subprocess.STDOUT)
    return (os.path.join(BUILD_DIR, "mpe_perfbench"),
            os.path.join(BUILD_DIR, "mpe_cli"))


def fingerprint(harness):
    fp = json.loads(subprocess.run([harness, "fingerprint"], check=True,
                                   stdout=subprocess.PIPE).stdout)
    fp["nproc"] = os.cpu_count()
    if not fp["optimized"] or not fp["ndebug"]:
        raise SystemExit("perfbench: refusing to report from an unoptimized "
                         "build: %s" % json.dumps(fp))
    return fp


def rate(ops):
    """Hyper-samples per second over all timed operations. A mean, not a
    median of per-operation rates: host speed drifts in phases of seconds,
    and a median jumps between the fast and slow phase where a mean moves
    smoothly with their mix."""
    return sum(ops["hyper_samples"]) / (sum(ops["ms"]) / 1000.0)


def in_process(harness, args):
    out = subprocess.run(
        [harness, "run", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, timeout=170)
    if out.returncode != 0:
        raise SystemExit("perfbench: harness exited with %d" % out.returncode)
    return json.loads(out.stdout.decode().splitlines()[-1])


def in_process_metrics(raw, workload):
    """(end-to-end, per-layer, human-only) metrics of an in-process run.
    A traced run has per-layer metrics only: its timed operations ran with
    the decorators installed."""
    ops = raw["ops"]
    e2e = {}
    p50 = benchlib.percentile(ops["ms"], 50)
    extra = {"ops_timed": (len(ops["ms"]), "count")}
    if raw["layers"] is None:
        e2e = {
            "setup_s": (benchlib.trimmed_mean(raw["setup_s"]), "s"),
            "hyper_samples_per_s": (rate(ops), "1/s"),
            "latency_ms_mean": (sum(ops["ms"]) / len(ops["ms"]), "ms"),
            "latency_ms_tail": (benchlib.percentile(
                ops["ms"], TAIL_Q[workload]), "ms"),
            "units_per_op": (raw["exact"]["units_per_op"], "pairs"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        }
    if workload != "finite-paper":
        extra["latency_ms_p50"] = (p50, "ms")
    else:
        ex = raw["exact"]
        extra["estimate_ms_p50"] = (p50, "ms")
        if e2e:
            extra["estimate_ms_p95"] = (e2e["latency_ms_tail"][0], "ms")
        extra.update({
            "units_per_estimate": (ex["units_per_op"], "pairs"),
            "abs_rel_err_mean": (ex["abs_rel_err_mean"], "ratio"),
            "within_epsilon_share": (ex["within_epsilon_share"], "ratio"),
            "true_max_mw": (ex["true_max"], "mW"),
        })
    layers = {}
    L = raw["layers"]
    if L is not None:
        wall = L["engine_wall_s"]
        sim_busy = L["source_busy_s"] - L["vectors_busy_s"]
        fit_us = L["fit_us"]
        layers = {
            "gen.build_ms": (benchlib.median(raw["gen_build_ms"]), "ms"),
            "sim.compile_ms": (benchlib.median(raw["sim_compile_ms"])
                               if raw["sim_compile_ms"] else 0.0, "ms"),
            "vectors.pairs": (L["vectors_pairs"], "count"),
            "vectors.busy_s": (L["vectors_busy_s"], "s"),
            "vectors.ns_per_pair": (1e9 * benchlib.ratio(
                L["vectors_busy_s"], L["vectors_pairs"]), "ns"),
            "vectors.db_build_s": (benchlib.median(raw["db_build_s"])
                                   if raw["db_build_s"] else 0.0, "s"),
            "sim.units": (L["source_units"], "count"),
            "sim.busy_s": (sim_busy, "s"),
            "sim.ns_per_unit": (1e9 * benchlib.ratio(
                sim_busy, L["source_units"]), "ns"),
            "evt.fits": (L["fits"], "count"),
            "evt.fit_busy_s": (L["fit_busy_s"], "s"),
            "evt.fit_us_p50": (benchlib.percentile(fit_us, 50), "us"),
            "evt.fit_us_p95": (benchlib.percentile(fit_us, 95), "us"),
            "evt.degenerate_share": (benchlib.ratio(
                L["degenerate_fits"], L["fits"]), "ratio"),
            "evt.mle_fits_per_hs": (benchlib.ratio(
                L["mle_fits"], L["hyper_samples"]), "count"),
            "evt.profile_evals_per_fit": (benchlib.ratio(
                L["profile_evals"], L["mle_fits"]), "count"),
            "maxpower.stop_calls": (L["stop_calls"], "count"),
            "maxpower.stop_busy_s": (L["stop_busy_s"], "s"),
            "maxpower.engine_self_s": (L["engine_self_s"], "s"),
            "maxpower.waves": (L["waves"], "count"),
            "maxpower.speculation_wasted_share": (benchlib.ratio(
                L["speculation_wasted"],
                L["speculation_wasted"] + L["hyper_samples"]), "ratio"),
            "util.pool_task_wait_ms": (L["pool_task_wait_ns"] / 1e6, "ms"),
            "vectors.share": (benchlib.ratio(L["vectors_busy_s"], wall),
                              "ratio"),
            "sim.share": (benchlib.ratio(sim_busy, wall), "ratio"),
            "evt.share": (benchlib.ratio(L["fit_busy_s"], wall), "ratio"),
            "maxpower.stop_share": (benchlib.ratio(L["stop_busy_s"], wall),
                                    "ratio"),
            "maxpower.self_share": (benchlib.ratio(L["engine_self_s"], wall),
                                    "ratio"),
            "trace.overhead_ratio": (
                rate(ops) /
                rate(raw["untraced_ops"]), "ratio"),
        }
    return e2e, layers, extra


def serve_metrics(raw, trace):
    jobs = raw["jobs"]
    attempted, failed, latencies = benchlib.account(jobs)
    done = [j for j in jobs if j["outcome"] == "done"]
    hyper = sum(j["hyper_samples"] for j in done)
    units = sum(j["units"] for j in done)
    p50 = benchlib.finite_or_fail(
        "job_latency_ms_p50", benchlib.percentile(latencies, 50))
    tail = benchlib.finite_or_fail(
        "job_latency_ms_tail", benchlib.percentile(latencies, fleet.TAIL_Q))
    e2e = {
        "setup_s": (benchlib.trimmed_mean(raw["setup_s"]), "s"),
        "hyper_samples_per_s": (hyper / raw["wall_s"], "1/s"),
        "latency_ms_mean": (benchlib.finite_or_fail(
            "job_latency_ms_mean", sum(latencies) / len(latencies)), "ms"),
        "latency_ms_tail": (tail, "ms"),
        "units_per_op": (benchlib.ratio(units, len(done)), "pairs"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    extra = {
        "job_latency_ms_p50": (p50, "ms"),
        "job_latency_ms_p%d" % fleet.TAIL_Q: (tail, "ms"),
        "jobs_per_s": (len(done) / raw["wall_s"], "1/s"),
        "jobs_timed": (len(jobs), "count"),
    }
    layers = {}
    if trace:
        def ms(a, b):
            return [(j[b] - j[a]) * 1000.0 for j in done if a in j and b in j]

        def delta(part, name):
            return sum(seg["after"][part].get(name, 0.0) -
                       seg["before"][part].get(name, 0.0)
                       for seg in raw["segments"])

        hits = delta("stats", "cache_hits")
        misses = delta("stats", "cache_misses")
        untraced = [j["latency_ms"] for j in done if not j["traced"]]
        traced = [j["latency_ms"] for j in done if j["traced"]]
        layers = {
            "server.accept_ms_p50": (benchlib.percentile(
                ms("t_submit", "t_accepted"), 50), "ms"),
            "server.to_first_shard_ms_p50": (benchlib.percentile(
                ms("t_accepted", "t_first_shard"), 50), "ms"),
            "server.to_first_shard_ms_p75": (benchlib.percentile(
                ms("t_accepted", "t_first_shard"), 75), "ms"),
            "server.assembly_ms_p50": (benchlib.percentile(
                ms("t_last_shard", "t_result"), 50), "ms"),
            "server.cache_hit_ratio": (benchlib.ratio(hits, hits + misses),
                                       "ratio"),
            "server.rejected": (delta("stats", "rejected"), "count"),
            "dist.shards_per_job": (benchlib.ratio(
                sum(j["shards"] for j in done), len(done)), "count"),
            "dist.shard_ms_mean": (benchlib.ratio(
                delta("scrape", "mpe_coord_shard_latency_ms_sum"),
                delta("scrape", "mpe_coord_shard_latency_ms_count")), "ms"),
            "dist.shard_size": (raw["segments"][-1]["after"]["scrape"].get(
                "mpe_coord_shard_size", 0.0), "count"),
            # Untraced over traced latency, so that, as on the in-process
            # workloads, a value below 1 means tracing slowed the run. Plain
            # medians: the untraced first fleet serves about 12 jobs.
            "trace.overhead_ratio": (benchlib.median(untraced) /
                                     benchlib.median(traced), "ratio"),
        }
    return e2e, layers, extra, attempted, failed


def load_bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = load_bench_spec()
    harness, cli = build()
    fp = fingerprint(harness)
    load_start = os.getloadavg()[0]

    if args.workload == "serve-fleet":
        work_dir = os.path.join(ROOT, ".bench_build", "runs",
                                "serve-fleet-%d-%d" % (os.getpid(),
                                                       time.time_ns()))
        try:
            raw = fleet.run(cli, harness, work_dir, args.seed, args.seconds,
                            bool(args.trace))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        e2e, layers, extra, attempted, failed = serve_metrics(
            raw, bool(args.trace))
    else:
        raw = in_process(harness, args)
        e2e, layers, extra = in_process_metrics(raw, args.workload)
        attempted, failed = raw["attempted"], raw["failed"]
        fp["backend"] = raw["kernel"]
        if args.trace and THREADS[args.workload] == 1:
            # Layer busy times plus engine self time must add up to the
            # engine's wall time: no layer is counted twice or missed.
            L = raw["layers"]
            parts = (L["source_busy_s"] + L["fit_busy_s"] + L["stop_busy_s"]
                     + L["engine_self_s"])
            ok = abs(parts - L["engine_wall_s"]) <= 0.01 * L["engine_wall_s"]
            raw["checks"]["checked"].append("layers_account_for_wall")
            if not ok:
                raw["checks"]["ok"] = False
                raw["checks"]["failures"].append({"detail": (
                    "layers_account_for_wall: %.4f s of layers vs %.4f s "
                    "engine wall" % (parts, L["engine_wall_s"]))})
    checks = raw["checks"]
    extra["failed_share"] = (benchlib.ratio(failed, attempted), "ratio")
    fp["loadavg_1m_start"] = load_start
    fp["loadavg_1m_end"] = os.getloadavg()[0]

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("fingerprint: %s" % json.dumps(fp, sort_keys=True))
    print("checks: %s" % json.dumps(checks, sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = dict(layers if args.trace else e2e)
    for name, (value, unit) in sorted(dict(shown, **extra).items()):
        print("  %-36s %16.6g %s" % (name, value, unit))

    metrics = {}
    for m in wanted:
        if args.trace:
            # A layer that is not on this workload's path did no work.
            value = shown.get(m["name"], (0.0,))[0]
        else:
            value = shown[m["name"]][0]
        if not math.isfinite(value):
            raise SystemExit("perfbench: %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(result_dir, exist_ok=True)
    with open(os.path.join(result_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"fingerprint": fp, "checks": checks, "metrics": metrics,
                   "extra": {k: v[0] for k, v in extra.items()}}, f,
                  indent=1, sort_keys=True)
    print(json.dumps({"correct": bool(checks["ok"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if checks["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

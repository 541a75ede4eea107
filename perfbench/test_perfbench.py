"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The decorator test runs `mpe_perfbench selftest` and is skipped until
perfbench/run.py has built the harness once.
"""

import json
import math
import os
import socket
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import benchlib  # noqa: E402
import fleet  # noqa: E402

HARNESS = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench",
                       "mpe_perfbench")


class PercentileTest(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertEqual(benchlib.percentile(list(range(1, 201)), 95), 190)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(1, 200)), 95)

    def test_p50_needs_20_samples(self):
        self.assertEqual(benchlib.percentile(list(range(20, 0, -1)), 50), 10)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(19)), 50)

    def test_min_samples(self):
        self.assertEqual(benchlib.min_samples(95), 200)
        self.assertEqual(benchlib.min_samples(75), 40)
        self.assertEqual(benchlib.min_samples(50), 20)

    def test_empty_and_bad_q(self):
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile(list(range(100)), 100)


class TrimmedMeanTest(unittest.TestCase):
    def test_drops_a_tenth_at_each_end(self):
        values = [1.0] * 8 + [100.0, -100.0]
        self.assertEqual(benchlib.trimmed_mean(values), 1.0)
        self.assertEqual(benchlib.trimmed_mean([1.0, 2.0, 6.0]), 3.0)


class AccountingTest(unittest.TestCase):
    def test_rejected_and_timed_out_jobs_fail_and_miss_latency(self):
        jobs = ([{"outcome": "done", "latency_ms": 5.0}] * 180 +
                [{"outcome": "rejected"}] * 10 + [{"outcome": "timeout"}] * 10)
        attempted, failed, latencies = benchlib.account(jobs)
        self.assertEqual((attempted, failed), (200, 20))
        self.assertEqual(sum(1 for v in latencies if math.isinf(v)), 20)
        # Failed jobs sit above every completed one: they miss every limit,
        # so the 10 % of failures push p95 to infinity.
        with self.assertRaises(ValueError):
            benchlib.finite_or_fail("p95", benchlib.percentile(latencies, 95))
        self.assertEqual(benchlib.percentile(latencies, 50), 5.0)

    def test_unknown_outcome_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.account([{"outcome": "maybe"}])


class FakeConnection:
    """Replays scripted reply lines; raises socket.timeout when empty."""

    def __init__(self, lines):
        self.lines = list(lines)
        self.sent = []

    def send(self, data):
        self.sent.append(json.loads(data))

    def recv_raw(self, timeout):
        if not self.lines:
            raise socket.timeout()
        return self.lines.pop(0)


def reply(kind, job_id, **fields):
    return json.dumps(dict({"schema": "mpe.server", "v": 1, "type": kind,
                            "id": job_id}, **fields))


class LoadGeneratorTest(unittest.TestCase):
    def test_rejected_submit_is_recorded_as_failed(self):
        conn = FakeConnection([reply("rejected", "j", code="bad-data")])
        rec = fleet.run_one_job(conn, "j", {"circuit": "c880"})
        self.assertEqual(rec["outcome"], "rejected")
        self.assertNotIn("latency_ms", rec)
        self.assertEqual(benchlib.account([rec])[:2], (1, 1))

    def test_silent_server_is_a_timeout(self):
        conn = FakeConnection([reply("accepted", "j")])
        rec = fleet.run_one_job(conn, "j", {"circuit": "c880"})
        self.assertEqual(rec["outcome"], "timeout")
        self.assertEqual(benchlib.account([rec])[:2], (1, 1))

    def test_completed_job_keeps_its_timeline(self):
        result = reply("result", "j", status="done", hyper_samples=9,
                       units=2700)
        conn = FakeConnection([
            reply("accepted", "j"),
            reply("event", "j", seq=0, name="shard_done"),
            reply("accepted", "other"), result])
        rec = fleet.run_one_job(conn, "j", {"circuit": "c880"})
        self.assertEqual(rec["outcome"], "done")
        self.assertEqual(rec["line"], result)
        self.assertEqual((rec["shards"], rec["hyper_samples"]), (1, 9))
        self.assertLessEqual(rec["t_submit"], rec["t_first_shard"])
        self.assertEqual(conn.sent[0]["type"], "submit")
        self.assertEqual(json.loads(conn.sent[0]["spec"])["job"], "j")

    def test_failed_result_counts_as_failed(self):
        conn = FakeConnection([reply("result", "j", status="failed")])
        rec = fleet.run_one_job(conn, "j", {"circuit": "c880"})
        self.assertEqual(benchlib.account([rec])[:2], (1, 1))

    def test_parse_scrape(self):
        parsed = fleet.parse_scrape("a_total 3\nb{path=serial} 1.5\njunk\n")
        self.assertEqual(parsed, {"a_total": 3.0, "b{path=serial}": 1.5})


@unittest.skipUnless(os.path.isfile(HARNESS), "harness not built yet")
class DecoratorTest(unittest.TestCase):
    def test_decorators_pass_values_and_rng_through(self):
        out = subprocess.run([HARNESS, "selftest"], stdout=subprocess.PIPE,
                             timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout.decode())


if __name__ == "__main__":
    unittest.main()

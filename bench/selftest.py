"""Self-test of the benchmark at a tiny store size.

    python3 bench/selftest.py

Checks that the store generator is deterministic, that every workload prints
every metric ``BENCHMARK.json`` names in both modes with ``correct: true``,
and that each answer check flags a deliberately corrupted payload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import cli_session  # noqa: E402
import closure_churn  # noqa: E402
import gen  # noqa: E402
import http_mix  # noqa: E402
from common import WORK, fresh_dir  # noqa: E402
from semint import store  # noqa: E402

TINY = gen.SIZES["tiny"]
SCRATCH = WORK / "selftest"


def setUpModule():
    fresh_dir(SCRATCH)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def corrupt(body: bytes) -> bytes:
    flipped = bytearray(body)
    flipped[len(flipped) // 2] ^= 0x01
    return bytes(flipped)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_store(self):
        digests = []
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            model = gen.write_store(TINY, seed, SCRATCH / f"gen-{name}")
            digests.append(gen.store_digest(SCRATCH / f"gen-{name}"))
            self.assertEqual(model.counts["edges"], TINY.edges)
            self.assertEqual(model.counts["records"], TINY.fdos)
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    cmd = [*spec["command"], "--workload", workload["name"], "--seed", "3"]
                    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
                    cmd[0] = sys.executable
                    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if key == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = SCRATCH / "checks"
        cls.model = gen.write_store(TINY, 5, cls.root)

    def test_http_check_flags_a_corrupted_body(self):
        engine = store.load_store(self.root)
        deck = http_mix.Deck(http_mix.request_pool(self.model, 5), 5)
        expected = {i: check.expected_http(engine, r) for i, r in enumerate(deck.requests)}
        responses = [(i, status, body) for i, (status, body) in expected.items()]
        self.assertTrue(all(status == 200 for _, status, _ in responses))
        self.assertEqual(check.http_mismatches(expected, responses), [])
        index, status, body = responses[7]
        responses[7] = (index, status, corrupt(body))
        self.assertEqual(len(check.http_mismatches(expected, responses)), 1)

    def test_cli_check_flags_a_corrupted_stdout(self):
        inputs = fresh_dir(SCRATCH / "cli-inputs")
        script = cli_session.script(self.model, 5, inputs)[: cli_session.BLOCK]
        results = []
        engine = store.load_store(self.root)
        for command in script:
            code, out = command.expect(engine)
            results.append((command, 0.0, code, out.encode("utf-8"), b""))
        self.assertEqual(cli_session.mismatches(store.load_store(self.root), results), [])
        command, wall, code, out, err = results[2]
        results[2] = (command, wall, code, corrupt(out), err)
        self.assertEqual(len(cli_session.mismatches(store.load_store(self.root), results)), 1)

    def test_churn_check_flags_a_wrong_verdict(self):
        engine = store.load_store(self.root)
        worker = closure_churn.Worker(engine, gen.make_model(TINY, 5), 5)
        worker.step()
        self.assertEqual(worker.failures, [])
        batch, _, _, reads = prepared = worker.prepare()
        done = worker._timed(prepared)
        verdict = done["verdict"]
        wrong = replace(verdict, actionable=not verdict.actionable)
        worker._check(batch, done["report"], wrong, reads, done["results"])
        self.assertEqual(len(worker.failures), 1, worker.failures)


if __name__ == "__main__":
    unittest.main()

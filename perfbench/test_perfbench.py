"""Self-tests of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need the checkout's ``src/`` (the CLI tests run it), numpy, scipy and
click, and write only under perfbench/_runs/selftest.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import checks
import run
import spans
from walkgen import SUPPORT, VARIANCE, family, seed_walk

sys.path.insert(0, str(run.ROOT / "src"))

SELFTEST = run.RUNS / "selftest"


def set_field(text: str, column: str, value: str) -> str:
    """CSV text with ``column`` of the first data row set to ``value``."""
    lines = text.split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    row[header.index(column)] = value
    lines[1] = ",".join(row)
    return "\n".join(lines)


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "error": None,
            "units": None}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        s = [span("cli.main", 0.0, 10.0),
             span("oracle.a", 1.0, 4.0, 0),
             span("oracle.b", 3.0, 6.0, 0),  # overlaps a: union [1, 6]
             span("extrapolation.c", 2.0, 3.0, 1),
             span("constants.d", 9.0, 12.0, 0)]  # runs past its parent's end
        self.assertEqual(spans.self_times(s), [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])

    def test_inclusive_counts_outermost_selected_spans_once(self):
        s = [span("cli.main", 0.0, 10.0),
             span("extrapolation.limit_with_rate", 1.0, 4.0, 0),
             span("extrapolation.fit_power_tail", 2.0, 3.0, 1),
             span("extrapolation.fit_power_tail", 5.0, 6.5, 0)]
        layer = spans.inclusive(s, lambda x: spans.layer_of(x["name"]) == "extrapolation")
        self.assertEqual(layer, 4.5)

    def test_layer_self_times_add_up_to_root(self):
        s = [span("cli.main", 0.0, 8.0),
             span("constants.compute_constants", 1.0, 7.0, 0),
             span("oracle.tau_statistics", 1.5, 5.0, 1),
             span("extrapolation.fit_power_tail", 5.5, 6.0, 1)]
        m = spans.invocation_metrics({"spans": s, "extras": {}})
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(total, 8.0)
        self.assertAlmostEqual(m["oracle.self_s"], 3.5)
        self.assertAlmostEqual(m["constants.self_s"], 2.0)
        self.assertAlmostEqual(m["cli.self_s"], 2.0)

    def test_tracer_nests_and_parents_worker_spans_to_main(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return tracer.call("expansion.evaluate", lambda: 1, (), {})

        def outer():
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(inner).result()

        tracer.call("cli.main", outer, (), {})
        names = {s["name"]: s for s in tracer.spans}
        self.assertIsNone(names["cli.main"]["parent"])
        self.assertEqual(names["expansion.evaluate"]["parent"], 0)
        self.assertTrue(all(s["end"] is not None for s in tracer.spans))

    def test_tracer_records_exception_type(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.call("extrapolation.fit_power_tail", boom, (), {})
        self.assertEqual(tracer.spans[0]["error"], "ValueError")

    def test_pass_metrics_adds_before_dividing_ratios(self):
        a = {"oracle.steps": 10, "oracle.row_fill.num": 1, "oracle.row_fill.den": 4,
             "computed.max_row_bytes": 8}
        b = {"oracle.steps": 5, "oracle.row_fill.num": 3, "oracle.row_fill.den": 4,
             "computed.max_row_bytes": 16}
        m = spans.pass_metrics([a, b])
        self.assertEqual(m, {"oracle.steps": 15, "oracle.row_fill": 0.5,
                             "computed.max_row_bytes": 16})


class SeedWalks(unittest.TestCase):
    def test_every_law_of_the_family_validates(self):
        from poswalk import increments
        laws = family()
        self.assertEqual(len(laws), 38)
        for w in laws:
            dist = increments.validate(SUPPORT, [Fraction(x, sum(w)) for x in w])
            self.assertEqual(dist.sigma2(), VARIANCE)

    def test_seeds_give_valid_laws(self):
        from poswalk import increments
        for seed in range(300):
            dist = increments.validate(**seed_walk(seed))
            self.assertEqual(dist.support, SUPPORT)
            self.assertEqual(dist.arithmetic_mode, "exact-rational")

    def test_same_seed_same_law_and_seeds_spread_over_the_family(self):
        self.assertEqual(seed_walk(7), seed_walk(7))
        self.assertGreater(len({json.dumps(seed_walk(s)) for s in range(100)}), 30)


class ReferenceLoad(unittest.TestCase):
    def test_reference_runs_without_the_program(self):
        env = {k: v for k, v in run.child_env().items() if k != "PYTHONPATH"}
        code = "import runpy, sys; runpy.run_path(sys.argv[1]); " \
               "assert not any(m.startswith('poswalk') for m in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code, run.REFERENCE_ARGV[1]], env=env,
                             cwd=run.BENCH_DIR, capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_speed_factor_scales_by_the_fastest_reference_sample(self):
        self.assertAlmostEqual(run.speed_factor([3.0 * run.REFERENCE_S, 2.0 * run.REFERENCE_S]),
                               0.5)
        self.assertTrue(math.isnan(run.speed_factor([])))


class OutcomeChecks(unittest.TestCase):
    """Real CLI invocations at tiny horizons, then tampering."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SELFTEST, ignore_errors=True)
        SELFTEST.mkdir(parents=True)
        (SELFTEST / "bad.json").write_text(
            json.dumps({"support": [-1, 0, 1], "probs": ["1/2", "1/4", "1/4"]}))
        cls.invs = [
            {"id": "0-verify", "command": "verify", "dist": "trinomial",
             "args": ["verify", "--dist", run.DISTS["trinomial"], "--nmax", "100",
                      "--kmax", "256"],
             "opts": {"--nmax": "100", "--kmax": "256"}},
            {"id": "1-bad", "command": "constants", "dist": None,
             "args": ["constants", "--dist", str((SELFTEST / "bad.json").relative_to(run.ROOT)),
                      "--kmax", "256"],
             "opts": {"--kmax": "256"}},
        ]
        cls.env = run.child_env()
        cls.first = {inv["id"]: run.run_invocation(inv, SELFTEST / "round0" / inv["id"], False,
                                                   cls.env)
                     for inv in cls.invs}

    def test_clean_artifacts_pass_and_invalid_dist_fails(self):
        r = self.first
        self.assertEqual(r["0-verify"]["problems"], [])
        self.assertIn(r["0-verify"]["exit_code"], checks.VERDICT_CODES)
        self.assertEqual(r["1-bad"]["exit_code"], 2)
        self.assertEqual(r["1-bad"]["problems"], ["exit code 2"])

    def test_tampered_artifacts_are_caught(self):
        src = SELFTEST / "round0" / "0-verify"
        cases = {
            "exact above one": ("error_table.csv", lambda t: set_field(t, "exact", "1.5")),
            "exact negative": ("error_table.csv", lambda t: set_field(t, "exact", "-1e-3")),
            "nan": ("error_table.csv", lambda t: set_field(t, "approx", "nan")),
            "text": ("error_table.csv", lambda t: set_field(t, "abs_err", "oops")),
            "json key": ("verify_summary.json", lambda t: t.replace('"pass"', '"passed"')),
            "infinity": ("verify_summary.json",
                         lambda t: t.replace('"flatness_band": 3.0', '"flatness_band": Infinity')),
        }
        for label, (name, tamper) in cases.items():
            with self.subTest(label):
                dst = SELFTEST / f"tampered-{label.replace(' ', '-')}"
                shutil.rmtree(dst, ignore_errors=True)
                shutil.copytree(src, dst)
                text = (dst / name).read_text()
                changed = tamper(text)
                self.assertNotEqual(changed, text)
                (dst / name).write_text(changed)
                self.assertNotEqual(checks.check_artifacts(dst, "verify", self.invs[0]["opts"]),
                                    [])
        dst = SELFTEST / "tampered-missing"
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        (dst / "error_table.csv").unlink()
        self.assertEqual(checks.check_artifacts(dst, "verify", self.invs[0]["opts"]),
                         ["error_table.csv: missing"])

    def test_digest_change_between_rounds_is_a_failure(self):
        first = json.loads(json.dumps(self.first["0-verify"]))
        second = json.loads(json.dumps(first))
        second["digests"]["error_table.csv"] = "0" * 64
        run.mark_inconsistent([first, second])
        self.assertEqual(first["problems"], [])
        self.assertEqual(second["problems"], ["artifact digests differ from the first round"])


if __name__ == "__main__":
    unittest.main()

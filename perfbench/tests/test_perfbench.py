"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import marshal
import sys
import unittest
import warnings
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def reference(name: str) -> list[dict]:
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())["invocations"]


def perturb_first_lambda(out: str) -> str:
    """The same CSV with the first row's lambda moved by 1e-5."""
    lines = out.splitlines(keepends=True)
    cols = lines[1].split(",")
    cols[2] = repr(float(cols[2]) + 1e-5)
    lines[1] = ",".join(cols)
    return "".join(lines)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_same_argv(self):
        for name in workloads.NAMES:
            for seed in (0, 1, 7, 12345):
                a = workloads.generate(name, seed)
                self.assertEqual(a.invocations, workloads.generate(name, seed).invocations)
        self.assertNotEqual(workloads.generate("identities", 1).invocations,
                            workloads.generate("identities", 2).invocations)

    def test_generic_bias_is_never_exact(self):
        from aqrm.spectrum import exact_bias
        lo, hi = workloads.GENERIC_K_RANGE
        for k in range(lo, hi + 1):
            if k % 2 and k % 5:
                self.assertIsNone(exact_bias(float(f"0.{k:05d}")), k)
        for seed in range(200):
            eps = workloads.generic_bias(seed)
            self.assertGreater(Fraction(eps).denominator,
                               workloads.EXACT_BIAS_DENOMINATOR_CAP)

    def test_sweep_grid_keeps_clear_of_work_steps(self):
        from aqrm.cli import parse_range
        # the sweep's work steps up where g^2 + 1/2 crosses an integer
        _, base = workloads.sweep_grid(0)
        for seed in range(300):
            g_arg, grid = workloads.sweep_grid(seed)
            self.assertEqual(parse_range(g_arg), grid)
            for g, g0 in zip(grid, base):
                self.assertEqual(int(g * g + 0.5), int(g0 * g0 + 0.5), (seed, g))
                self.assertGreater(abs(g * g + 0.5 - round(g * g + 0.5)), 0.05)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        self.assertEqual([w["why"] for w in spec["workloads"]],
                         [workloads.WHY[n] for n in workloads.NAMES])
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        per_layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(per_layer, list(tracer.layer_metrics([], 1.0)) + list(run.TRACE_TOTALS))
        for m in spec["per_layer"] + spec["end_to_end"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])


class CheckTests(unittest.TestCase):
    def test_identity_outputs_pass_and_perturbations_fail(self):
        wl = workloads.generate("identities", workloads.DEFAULT_SEED)
        perturb = {
            "verify": lambda s: s.replace("PASS", "FAIL", 1),
            "poly": lambda s: s.replace("x", "2*x", 1),
            "divide": lambda s: s.replace("true", "false"),
            "count-roots": lambda s: f"{int(s) + 1}\n",
        }
        for ref in reference("identities"):
            argv, out = ref["argv"], ref["stdout"]
            self.assertEqual(check.check(wl, argv, 0, out, {}), [], argv)
            self.assertTrue(check.check(wl, argv, 0, perturb[argv[0]](out), {}), argv)
            self.assertTrue(check.check(wl, argv, 1, out, {}), argv)

    def test_divide_quotient_is_checked_against_the_identity(self):
        wl = workloads.generate("identities", workloads.DEFAULT_SEED)
        ref = next(r for r in reference("identities") if r["argv"][0] == "divide")
        obj = json.loads(ref["stdout"])
        obj["quotient"]["terms"][0][2] = str(Fraction(obj["quotient"]["terms"][0][2]) + 1)
        self.assertTrue(check.check(wl, ref["argv"], 0, json.dumps(obj), {}))

    def test_spectrum_outputs_pass_and_perturbations_fail(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name in ("sweep-half", "oracle-bands"):
                wl = workloads.generate(name, workloads.DEFAULT_SEED)
                expect = check.expectations(wl)
                ref = reference(name)[0]
                argv, out = ref["argv"], ref["stdout"]
                self.assertEqual(check.check(wl, argv, 0, out, expect), [])
                self.assertEqual(check.compare_reference(argv, out, ref), [])
                bad = perturb_first_lambda(out)
                self.assertTrue(check.check(wl, argv, 0, bad, expect), name)
                self.assertTrue(check.compare_reference(argv, bad, ref), name)
                dropped = "".join(out.splitlines(keepends=True)[:-1])
                self.assertTrue(check.check(wl, argv, 0, dropped, expect), name)

    def test_sweep_multiplicity_two_needs_half_integer_bias(self):
        wl = workloads.generate("sweep-half", workloads.DEFAULT_SEED)
        out = reference("sweep-half")[0]["stdout"]
        params = dict(wl.params, eps="0.49999")
        self.assertIn(",juddian,2,", out)
        problems = check._check_sweep(params, out, {"lambdas": [
            [float(r["lambda"]) for r in check.parse_spectrum_csv(out)[i * 8:(i + 1) * 8]]
            for i in range(len(wl.params["grid"]))]})
        self.assertTrue(any("multiplicity 2" in p for p in problems))

    def test_perturbed_output_is_counted_as_failed(self):
        wl = workloads.generate("identities", workloads.DEFAULT_SEED)
        refs = reference("identities")
        outputs = {tuple(r["argv"]): r["stdout"] for r in refs}
        outputs[tuple(refs[0]["argv"])] = refs[0]["stdout"].replace("PASS", "FAIL", 1)

        class FakeLauncher:
            def spawn(self, cmd, stem):
                return 0.01, 0, 1024, outputs[tuple(cmd[2:])]

        bench = run.Run(wl, FakeLauncher(), {}, refs)
        bench.run_pass(traced=False)
        self.assertEqual((bench.attempted, bench.failed), (len(refs), 1))


class TracerTests(unittest.TestCase):
    def snapshot(self):
        return {(name, attr): obj for name, mod in sys.modules.items()
                if name == "aqrm" or name.startswith("aqrm.")
                for attr, obj in vars(mod).items()}

    def test_bindings_are_wrapped_everywhere_and_restored(self):
        import aqrm.cli
        import aqrm.roots
        import aqrm.spectrum
        before = self.snapshot()
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(aqrm.spectrum.isolate_real_roots, before[("aqrm.spectrum", "isolate_real_roots")])
            self.assertIs(aqrm.spectrum.isolate_real_roots, aqrm.roots.isolate_real_roots)
            self.assertIs(aqrm.oracle._band_count_below.__wrapped__,
                          before[("aqrm.oracle", "_band_count_below")])
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = aqrm.cli.main(["count-roots", "--N", "6", "--eps", "2/5", "--y", "209/10"])
        finally:
            t.restore()
        self.assertEqual((rc, out.getvalue()), (0, "2\n"))
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        called = {t.names[s[0]] for s in t.spans}
        self.assertTrue({"cli.main", "spectrum.count_positive_roots",
                         "poly.constraint_poly", "roots.count_real_roots"} <= called)

    def test_traced_child_restores_and_dumps(self):
        run.OUT.mkdir(exist_ok=True)
        dump = run.OUT / "test-trace.marshal"
        argv = ["oracle", "--g", "1", "--delta", "1", "--eps", "0.2", "--M", "20", "--count", "3"]
        with run.Launcher(run.child_env()) as launcher:
            _, rc, _, out = launcher.spawn(
                [str(BENCH / "tracer.py"), str(dump), "0", "--", *argv], "test-trace")
            _, rc_plain, rss, out_plain = launcher.spawn(["-m", "aqrm.cli", *argv], "test-plain")
        self.assertEqual(rc, 0)
        self.assertEqual((rc, out), (rc_plain, out_plain))
        self.assertGreater(rss, 1024)
        data = marshal.loads(dump.read_bytes())
        self.assertTrue(data["restored"])
        self.assertGreater(data["bindings"], 50)
        m = tracer.layer_metrics([data], 1.0)
        self.assertEqual(m["oracle.lowest_eigenvalues.calls"], 1)
        self.assertGreater(m["oracle.inertia_probes"], 3 * 30)
        self.assertEqual(m["oracle.probes_per_eigenvalue"], m["oracle.inertia_probes"] / 3)

    def test_self_time_subtracts_child_spans(self):
        names = ["cli.main", "spectrum.juddian_roots", "roots.refine_root"]
        spans = [[0, 0.0, 10.0, -1, None], [1, 1.0, 5.0, 0, "1|1/2|1"],
                 [2, 2.0, 3.0, 1, None], [1, 6.0, 8.0, 0, "1|1/2|1"]]
        m = tracer.layer_metrics([{"names": names, "spans": spans,
                                   "branch_jets": {"hits": 3, "misses": 1}}], 20.0)
        self.assertAlmostEqual(m["cli.main.self_s"], 4.0)
        self.assertAlmostEqual(m["spectrum.juddian_roots.total_s"], 6.0)
        self.assertAlmostEqual(m["layer.spectrum.share"], 5.0 / 20.0)
        self.assertAlmostEqual(m["roots.refine_root.self_s"], 1.0)
        self.assertAlmostEqual(m["layer.outside.share"], 0.5)
        self.assertEqual(m["spectrum.juddian_roots.distinct_ratio"], 0.5)
        self.assertEqual(m["series.branch_jets.hit_ratio"], 0.75)


if __name__ == "__main__":
    unittest.main()

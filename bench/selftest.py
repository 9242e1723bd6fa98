"""Self-tests of the benchmark's gate and tracer.

    python3 bench/selftest.py

They run a few small ops; the whole file takes about ten seconds.
"""
import sys
import unittest
from unittest import mock

from run import cap_blas_threads, import_program, run_pass

cap_blas_threads()
import_program()

from jkepler import cli, phase, weyl  # noqa: E402  (needs ./src on sys.path)
from tracer import COUNT_TARGETS, SPAN_TARGETS, STR_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import Op, build_ops, execute, load_expected  # noqa: E402

ROWS = [Op("row", "gamma:3", nu="1", level=i, seed=5) for i in range(4)]
POISSON = Op("verify", "gamma:3", suite="poisson", trials=1, seed=3)


def failed_frac(outcomes):
    return sum(not o.ok for o in outcomes) / len(outcomes)


class GateTest(unittest.TestCase):
    expected = load_expected()

    def test_clean_ops_pass(self):
        outs = [execute(op, self.expected) for op in ROWS + [POISSON, Op("info", "gamma:3")]]
        self.assertEqual(failed_frac(outs), 0.0, [o.reason for o in outs])

    def test_wrong_degeneracy_fails(self):
        real = weyl.restriction_degeneracy
        with mock.patch.object(weyl, "restriction_degeneracy",
                               lambda *a, **k: real(*a, **k) + 1):
            outs = [execute(op, self.expected) for op in ROWS[1:]]
        self.assertEqual(failed_frac(outs), 1.0)
        self.assertIn("closed form", outs[0].reason)
        self.assertFalse(outs[0].known_defect)

    def test_wrong_energy_fails(self):
        with mock.patch.object(weyl, "bound_spectrum", lambda alg, nu, i: -1):
            out = execute(ROWS[2], self.expected)
        self.assertFalse(out.ok)
        self.assertIn("energy", out.reason)

    def test_failing_check_fails(self):
        real = phase.verify_poisson_tkk
        with mock.patch.object(cli, "verify_poisson_tkk",
                               lambda alg, **k: real(alg, mutated_moment=True, **k)):
            out = execute(POISSON, self.expected)
        self.assertFalse(out.ok)
        self.assertIn("poisson:XY", out.reason)

    def test_check_name_drift_fails(self):
        exp = {**self.expected, "check_names": {**self.expected["check_names"],
                                                "poisson gamma:3": ["poisson:XX"]}}
        self.assertIn("check names", execute(POISSON, exp).reason)

    def test_report_drift_fails(self):
        exp = {**self.expected, "reports": {POISSON.key: "0" * 64}}
        self.assertIn("digest", execute(POISSON, exp).reason)

    def test_raising_op_fails(self):
        out = execute(Op("row", "gamma:3", nu="1", level=-1), self.expected)
        self.assertFalse(out.ok)
        self.assertTrue(out.reason.startswith("raised DomainError"))

    def test_seeds_follow_workload_seed(self):
        self.assertEqual(build_ops("cone-spectrum", 7), build_ops("cone-spectrum", 7))
        self.assertNotEqual(build_ops("cone-spectrum", 7), build_ops("cone-spectrum", 8))


def _targets():
    out = []
    for _, owner, attrs, _ in SPAN_TARGETS:
        out += [(owner, a) for a in attrs]
    for _, owner, attrs in COUNT_TARGETS:
        out += [(owner, a) for a in attrs]
    out.append(STR_SPAN[1:])
    return out


class TracerTest(unittest.TestCase):
    def test_restores_every_wrapped_function(self):
        mods = [m for k, m in sys.modules.items() if k == "jkepler" or k.startswith("jkepler.")]
        before = {(id(m), k): v for m in mods for k, v in vars(m).items()}
        methods = {(owner, a): vars(owner)[a] for owner, a in _targets() if isinstance(owner, type)}
        tracer = Tracer()
        tracer.install()
        self.assertEqual(tracer.missing, [])
        self.assertIsNot(cli.restriction_degeneracy, before[(id(cli), "restriction_degeneracy")])
        self.assertIsNot(weyl.compose, before[(id(weyl), "compose")])
        tracer.restore()
        after = {(id(m), k): v for m in mods for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, val in before.items():
            self.assertIs(after[key], val, key)
        for (owner, a), val in methods.items():
            self.assertIs(vars(owner)[a], val, (owner, a))

    def test_spans_and_self_times(self):
        expected = load_expected()
        ops = [POISSON, Op("verify", "gamma:3", suite="operators", nu="1", trials=1, seed=2),
               Op("verify", "h:3:C", suite="tkk", trials=1, seed=2)] + ROWS
        tracer = Tracer()
        tracer.install()
        try:
            wall, outs = run_pass(ops, expected, tracer)
        finally:
            tracer.restore()
        self.assertEqual(failed_frac(outs), 0.0, [o.reason for o in outs])
        self_s, _, calls = tracer.self_times()
        self.assertTrue(all(v >= 0 for v in self_s.values()), self_s)
        roots = tracer.root_seconds()
        self.assertLessEqual(roots, wall)
        self.assertGreater(roots, 0.9 * wall)
        m = layer_metrics(tracer)
        for name in ("weyl.compose.calls", "phase.poisson_poly.calls", "conformal.str_span.builds",
                     "conformal.co_bracket.calls", "weyl.restriction_degeneracy.calls",
                     "scalars.cq_ops", "algebra.make_algebra.calls"):
            self.assertGreater(m[name], 0, name)
        self.assertEqual(calls["op"], len(ops))


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark tracer on a toy package.

    python3 perfbench/test_tracer.py
"""

import itertools
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, covered_length, group_totals, self_times  # noqa: E402


def make_toy_package():
    """``toypkg.a`` defines f and g (g calls f); ``toypkg.b`` imports f by name."""
    pkg = types.ModuleType("toypkg")
    a = types.ModuleType("toypkg.a")
    exec("def f(x):\n    return x + 1\n\ndef g(x):\n    return f(x) * 2\n", a.__dict__)
    b = types.ModuleType("toypkg.b")
    b.f = a.f
    exec("def h(x):\n    return f(x) + f(x)\n", b.__dict__)
    pkg.f = a.f
    modules = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(modules)
    return modules


class ToyPackageTest(unittest.TestCase):
    def setUp(self):
        self.modules = make_toy_package()
        self.originals = {k: dict(vars(m)) for k, m in self.modules.items()}
        self.tick = itertools.count()

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def assert_restored(self):
        for name, module in self.modules.items():
            for key, value in self.originals[name].items():
                self.assertIs(vars(module)[key], value, f"{name}.{key} not restored")

    def tracer(self, targets=("toypkg.a.f", "toypkg.a.g"), observers=None):
        return Tracer(targets, observers, clock=lambda: float(next(self.tick)))

    def test_rebinds_every_importing_namespace(self):
        a, b = self.modules["toypkg.a"], self.modules["toypkg.b"]
        with self.tracer() as tr:
            self.assertIsNot(b.f, self.originals["toypkg.b"]["f"])
            self.assertIs(b.f, a.f)
            self.assertIs(self.modules["toypkg"].f, a.f)
            self.assertEqual(b.h(1), 4)
            self.assertEqual(a.g(1), 4)
        self.assert_restored()
        self.assertEqual([s[0] for s in tr.spans], ["a.f", "a.f", "a.g", "a.f"])
        self.assertEqual(tr.spans[3][3], 2)   # f's parent is g
        self.assertEqual(tr.spans[0][3], -1)  # h is not traced

    def test_self_time_subtracts_children(self):
        a = self.modules["toypkg.a"]
        with self.tracer() as tr:
            a.g(1)
        # clock ticks: g opens 0, f opens 1, f closes 2, g closes 3
        self.assertEqual([s[1:3] for s in tr.spans], [[0.0, 3.0], [1.0, 2.0]])
        self.assertEqual(self_times(tr.spans), [2.0, 1.0])

    def test_restores_after_exception(self):
        a = self.modules["toypkg.a"]
        with self.assertRaises(TypeError):
            with self.tracer() as tr:
                a.g("x")
        self.assert_restored()
        self.assertTrue(all(s[2] > s[1] for s in tr.spans))

    def test_missing_target_fails_and_restores(self):
        with self.assertRaises(AttributeError):
            with self.tracer(("toypkg.a.f", "toypkg.a.renamed")):
                pass
        self.assert_restored()

    def test_observer_sees_arguments_and_result(self):
        seen = []
        tr = self.tracer(("toypkg.a.f",),
                         {"toypkg.a.f": lambda args, kwargs, res: seen.append((args, res))})
        with tr:
            self.modules["toypkg.b"].h(3)
        self.assertEqual(seen, [((3,), 4), ((3,), 4)])


class ArithmeticTest(unittest.TestCase):
    def test_covered_length_unions_and_clips(self):
        self.assertEqual(covered_length((0, 10), [(1, 3), (2, 4), (8, 12)]), 5)
        self.assertEqual(covered_length((0, 10), []), 0)
        self.assertEqual(covered_length((0, 10), [(-5, -1), (10, 11)]), 0)
        self.assertEqual(covered_length((0, 10), [(0, 10), (2, 3)]), 10)

    def test_self_times_uses_direct_children_only(self):
        spans = [
            ["run", 0.0, 10.0, -1, 1],
            ["sweep", 1.0, 9.0, 0, 1],
            ["block", 2.0, 5.0, 1, 1],
            ["block", 6.0, 8.0, 1, 1],
        ]
        self.assertEqual(self_times(spans), [2.0, 3.0, 3.0, 2.0])

    def test_group_totals_counts_nested_calls_once(self):
        spans = [
            ["ebgs", 0.0, 4.0, -1, 1],
            ["sbgs", 1.0, 2.0, 0, 1],
            ["sbgs", 5.0, 6.0, -1, 1],
            ["sbgs", 7.0, 9.0, -1, 2],
        ]
        group = {"ebgs": "outage", "sbgs": "outage"}.get
        self.assertEqual(group_totals(spans, group, 1), {"outage": (2, 5.0)})
        self.assertEqual(group_totals(spans, group, 2), {"outage": (1, 2.0)})


if __name__ == "__main__":
    unittest.main()

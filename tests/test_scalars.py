import ast
import importlib.util
import inspect
import pkgutil
from fractions import Fraction

import pytest

import jkepler
from jkepler.scalars import CQ, I, as_cq


def test_arithmetic():
    a = CQ(Fraction(1, 2), 3)
    b = CQ(2, Fraction(-1, 3))
    assert a + b == CQ(Fraction(5, 2), Fraction(8, 3))
    assert a - b == CQ(Fraction(-3, 2), Fraction(10, 3))
    assert a * b == CQ(Fraction(1, 2) * 2 - 3 * Fraction(-1, 3),
                       Fraction(1, 2) * Fraction(-1, 3) + 3 * 2)
    assert (a / b) * b == a
    assert -a == CQ(Fraction(-1, 2), -3)


def test_i_squares_to_minus_one():
    assert I * I == -1
    assert I.conjugate() == -I


def test_interop_with_rationals():
    a = CQ(1, 1)
    assert a + 1 == CQ(2, 1)
    assert 1 + a == CQ(2, 1)
    assert Fraction(1, 2) * a == CQ(Fraction(1, 2), Fraction(1, 2))
    assert a - Fraction(1) == CQ(0, 1)
    assert 2 / CQ(1, 1) == CQ(1, -1)


def test_equality_and_truthiness():
    assert CQ(3) == 3 == CQ(3)
    assert CQ(3, 0) == Fraction(3)
    assert hash(CQ(3)) == hash(Fraction(3))
    assert not CQ(0, 0)
    assert CQ(0, 1)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        CQ(1) / CQ(0)


def test_as_cq():
    assert as_cq(Fraction(2, 3)) == CQ(Fraction(2, 3))
    with pytest.raises(TypeError):
        as_cq(1.5)


# every module but scalars itself: the package runs on int and Fraction alone
MODULES = ["jkepler"] + sorted(f"jkepler.{m.name}" for m in pkgutil.iter_modules(jkepler.__path__)
                               if m.name != "scalars")


@pytest.mark.parametrize("module", MODULES)
def test_exact_layers_do_not_import_scalars(module):
    mod = importlib.import_module(module)
    imported, names = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(mod))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "jkepler")
            imported.add(base)
            imported.update(f"{base}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "jkepler.scalars" not in imported
    assert "CQ" not in names

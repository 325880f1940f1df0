"""The equivalence registry: every pair is run by some test, every
reference form is named by a pair and reached only through the registry,
and the comparison helpers fail where they must."""
import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import equivalence as eq
import reference

TESTS = Path(__file__).resolve().parent
MODULES = {path: ast.parse(path.read_text()) for path in TESTS.glob("test_*.py")}

# constructors and evaluators the tests may import from reference.py: no
# fast path stands beside them
EXEMPT = {
    "pauli_observable",  # builds a PauliObservable from {qubit: letter}
    "quadratic_from_matrix",  # builds a quadratic function from its matrix
    "Povm", "bell_povm",  # the Bell sampler's materialized measurement law
    "materialize_overlap_observable",  # the overlap test's observable, E[score] = tr[L rho]
    "polynomial_value",  # a sketch query's value at one input (its mean is paired)
}


def test_every_pair_is_run_by_a_test():
    # a test runs a pair by its name: bound("<name>") or PAIRS["<name>"]
    named = {node.value for tree in MODULES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert set(eq.PAIRS) - named == set()


def test_every_reference_form_is_named_by_a_pair():
    forms = {name for name, obj in vars(reference).items()
             if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
             and obj.__module__ == "reference"}
    # the `ref.<name>`s a Pair's fast or reference side reaches in
    # equivalence.py, through the module's functions it calls
    tree = ast.parse(Path(eq.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named, seen = set(), set()

    def reach(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "ref":
                named.add(sub.attr)
            elif isinstance(sub, ast.Name) and sub.id in functions and sub.id not in seen:
                seen.add(sub.id)
                reach(functions[sub.id])

    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Pair":
            for side in call.args[1:3]:
                reach(side)
    assert forms - EXEMPT - named == set()
    assert EXEMPT <= forms


def test_reference_forms_are_reached_only_through_the_registry():
    # a test module imports only exempt names from reference.py (this one
    # reads the module itself, to list its forms)
    imported = {(path.name, alias.name) for path, tree in MODULES.items()
                if path.name != Path(__file__).name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                if getattr(node, "module", None) == "reference" or alias.name == "reference"}
    assert {(module, name) for module, name in imported if name not in EXEMPT} == set()


def test_same_bytes_counts_the_sign_of_a_zero():
    with pytest.raises(AssertionError):
        eq.assert_same_bytes(np.array([-0.0]), np.array([0.0]))
    eq.assert_same_bytes(np.array([-0.0]), np.array([0.0]), zero_sign=False)
    with pytest.raises(AssertionError):
        eq.assert_same(-0.0, 0.0)
    with pytest.raises(AssertionError):  # one value, two dtypes
        eq.assert_same_bytes(np.array([1], dtype=np.uint8), np.array([1]))


def test_same_stream_fails_after_one_extra_draw():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    a.random(3), b.random(3)
    eq.assert_same_stream(a, b)
    a.random()
    with pytest.raises(AssertionError):
        eq.assert_same_stream(a, b)


def test_same_law_rejects_visibly_different_samples():
    rng = np.random.default_rng(7)
    fair, also_fair = rng.integers(0, 2, 4000), rng.integers(0, 2, 4000)
    eq.assert_same_law(fair, also_fair, 1e-3)
    with pytest.raises(AssertionError):
        eq.assert_same_law(fair, (rng.random(4000) < 0.6).astype(int), 1e-3)


def test_a_pair_that_differs_fails():
    def one_case():
        yield 1, 0

    def refuse(x, rng):
        raise ValueError("refused")

    for fast, reference_form in [
            (lambda x, rng: x + rng.random(), lambda x, rng: x + 1 + rng.random()),  # off by one
            (lambda x, rng: (rng.random(), x)[1], lambda x, rng: x),  # one extra draw
            (lambda x, rng: x, refuse)]:  # a refusal on one side only
        with pytest.raises(AssertionError):
            eq.Pair("differs", fast, (reference_form,), eq.single(one_case), eq.STREAM).check()
    with pytest.raises(AssertionError, match="no answered case"):
        eq.Pair("both refuse", refuse, (refuse,), eq.single(one_case), eq.STREAM).check()

    def per_side():  # a per-side argument reaches each side as given
        yield eq.Sides(1, 2),

    with pytest.raises(AssertionError):
        eq.Pair("sides", lambda x: x, (lambda x: x,), eq.single(per_side)).check()

"""Cache-transparency matrix: the 2x2 eval x pool grid changes nothing.

Both cross-iteration caches (verification evaluation, synthesis term-pool)
advertise "identical outcomes, less work".  This test runs representative
modules through Hanoi inference under all four cells of the cache matrix and
requires byte-identical outcome fingerprints (status, invariant, size,
iteration count, message - timing and counters excluded).

The evaluator's application memo promises more: identical outcomes *and*
identical evaluator steps, since a hit charges the steps the application
took.  A fifth run with the memo off must match the ``ec+pc`` run on both.

The default selection covers one built-in benchmark plus the curated example
modules; set ``CACHE_MATRIX_FULL=1`` to sweep every fast built-in (the
nightly CI job does).
"""

import os

import pytest

import repro.lang.eval as lang_eval
from repro.experiments.runner import run_module
from repro.gen.diff import CACHE_VARIANTS, outcome_fingerprint, variant_config
from repro.spec import load_module_file
from repro.suite.registry import fast_benchmarks, get_benchmark

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "modules")

EXAMPLE_FILES = [
    "bounded-stack.hanoi",
    "parity-counter.hanoi",
    "ring-buffer.hanoi",
    "lru-cache.hanoi",
    "union-find.hanoi",
]

BUILTINS = ["/coq/unique-list-::-set"]
if os.environ.get("CACHE_MATRIX_FULL"):
    BUILTINS = [definition.name for definition in fast_benchmarks()]


class _StepCounter:
    """Total evaluator steps: the budget delta of each outermost
    ``Evaluator.apply`` / ``Evaluator.eval`` call per budget (a nested call
    on the same budget is inside its caller's delta), the way
    ``perfbench/tracer.py`` counts ``lang.eval.steps``."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self._open = []
        apply, evaluate = lang_eval.Evaluator.apply, lang_eval.Evaluator.eval

        def counted_apply(evaluator, fn, *args, budget=None):
            return self._count(evaluator, budget,
                               lambda b: apply(evaluator, fn, *args, budget=b))

        def counted_eval(evaluator, expr, env=None, budget=None):
            return self._count(evaluator, budget, lambda b: evaluate(evaluator, expr, env, b))

        monkeypatch.setattr(lang_eval.Evaluator, "apply", counted_apply)
        monkeypatch.setattr(lang_eval.Evaluator, "eval", counted_eval)

    def _count(self, evaluator, budget, call):
        if budget is None:
            budget = lang_eval.EvalBudget(evaluator.default_fuel)
        outer = not any(b is budget for b in self._open)
        before = budget.remaining
        self._open.append(budget)
        try:
            return call(budget)
        finally:
            self._open.pop()
            if outer:
                self.steps += before - budget.remaining


def _assert_matrix_agrees(definition, fast_config, monkeypatch):
    counter = _StepCounter(monkeypatch)

    def run(config):
        before = counter.steps
        result = run_module(definition, mode="hanoi", config=config)
        return outcome_fingerprint(result), counter.steps - before

    fingerprints, steps = {}, {}
    for variant, _ in CACHE_VARIANTS:
        fingerprints[variant], steps[variant] = run(variant_config(fast_config, variant))
    with monkeypatch.context() as patch:
        patch.setattr(lang_eval, "MEMO_CAPACITY", 0)
        fingerprints["memo-off"], steps["memo-off"] = run(
            variant_config(fast_config, "ec+pc"))
    reference = fingerprints["ec+pc"]
    assert reference["status"] == "success", (
        f"{definition.name}: {reference['message']}")
    for variant, fingerprint in fingerprints.items():
        assert fingerprint == reference, (
            f"{definition.name}: variant {variant} diverged:\n"
            f"  {variant}: {fingerprint}\n  ec+pc: {reference}")
    assert steps["memo-off"] == steps["ec+pc"], (
        f"{definition.name}: {steps['memo-off']} evaluator steps with the memo off, "
        f"{steps['ec+pc']} with it on")


@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_outcomes_are_cache_independent(filename, fast_config, monkeypatch):
    definition = load_module_file(os.path.join(EXAMPLES_DIR, filename))
    _assert_matrix_agrees(definition, fast_config, monkeypatch)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_outcomes_are_cache_independent(name, fast_config, monkeypatch):
    _assert_matrix_agrees(get_benchmark(name), fast_config, monkeypatch)

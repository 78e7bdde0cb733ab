"""Differential soundness of the abstract proof tier.

Both halves of the ``verifier`` check of :mod:`repro.gen.diff` are
exercised:

* the ``enumerative`` / ``ladder`` runs - ladder runs must reproduce
  enumerative outcomes byte-for-byte (trajectory identity);
* :func:`verifier_soundness_mismatches` - no statically PROVEN obligation
  may admit an enumerated counterexample, across a spread of candidate
  invariants (trivial, oracle, per-constructor discriminators).

A quick subset always runs; the full sweep over all 28 built-in benchmarks
and every example module is marked ``absint`` and gates on ``ABSINT_FULL=1``
(the nightly CI job).
"""

import glob
import os
import pathlib

import pytest

from repro.experiments.runner import quick_config
from repro.gen.diff import (
    fuzz_module,
    verifier_soundness_mismatches,
)
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES = sorted(glob.glob(str(
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "modules"
    / "*.hanoi")))

QUICK_BENCHMARKS = [
    "/coq/unique-list-::-set",
    "/coq/sorted-list-::-set",
]

FULL = os.environ.get("ABSINT_FULL") == "1"


def verifier_backend_mismatches(definition, modes, config):
    """The ``verifier`` check's enumerative/ladder comparisons (its
    obligation-level soundness mismatches are tested separately below)."""
    return [m for m in fuzz_module(definition, modes=modes, config=config,
                                   require_success=(), check_oracle=False,
                                   checks=("verifier",)).mismatches
            if "obligation" not in m.fingerprints.get("ladder", {})]


@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_quick_builtins_have_no_backend_mismatches(name):
    definition = get_benchmark(name)
    assert verifier_backend_mismatches(
        definition, modes=("hanoi",), config=quick_config()) == []


@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_quick_builtins_have_no_soundness_mismatches(name):
    definition = get_benchmark(name)
    assert verifier_soundness_mismatches(
        definition, config=quick_config()) == []


def test_example_module_round_trips_through_the_ladder():
    definition = load_module_file(EXAMPLES[0])
    assert verifier_backend_mismatches(
        definition, modes=("hanoi",), config=quick_config()) == []
    assert verifier_soundness_mismatches(
        definition, config=quick_config()) == []


def test_fuzz_module_check_verifier_flag_runs_both_harnesses():
    definition = get_benchmark(QUICK_BENCHMARKS[0])
    report = fuzz_module(definition, modes=("hanoi",), config=quick_config(),
                         require_success=(), check_oracle=False,
                         checks=("cache", "verifier"))
    assert report.ok
    # 4 cache variants + the 2 backend comparison runs.
    assert report.runs == 6


@pytest.mark.absint
@pytest.mark.skipif(not FULL, reason="full differential sweep gates on ABSINT_FULL=1")
@pytest.mark.parametrize("name", all_benchmark_names())
def test_full_builtin_sweep(name):
    definition = get_benchmark(name)
    config = quick_config()
    assert verifier_backend_mismatches(
        definition, modes=("hanoi",), config=config) == []
    assert verifier_soundness_mismatches(definition, config=config) == []


@pytest.mark.absint
@pytest.mark.skipif(not FULL, reason="full differential sweep gates on ABSINT_FULL=1")
@pytest.mark.parametrize("path", EXAMPLES)
def test_full_example_sweep(path):
    definition = load_module_file(path)
    config = quick_config()
    assert verifier_backend_mismatches(
        definition, modes=("hanoi",), config=config) == []
    assert verifier_soundness_mismatches(definition, config=config) == []

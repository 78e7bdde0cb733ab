"""Warm-start transparency: disk-cached runs replay cold outcomes exactly."""

import os

import pytest

from repro.core.config import FAST_VERIFIER_BOUNDS, HanoiConfig
from repro.experiments.runner import run_module
from repro.gen.diff import fuzz_module, outcome_fingerprint
from repro.gen.modgen import generate_corpus
from repro.spec.loader import load_module_file, load_module_text

CONFIG = HanoiConfig(verifier_bounds=FAST_VERIFIER_BOUNDS, timeout_seconds=60)
EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "modules", "bounded-stack.hanoi")


def persistent_cache_mismatches(definition):
    return fuzz_module(definition, modes=("hanoi",), config=CONFIG,
                       require_success=(), check_oracle=False,
                       checks=("persistence",)).mismatches


@pytest.fixture(scope="module")
def generated():
    return generate_corpus(7, 1)[0].definition


def _flip_all_entries(cache_dir):
    flipped = 0
    for root, _, files in os.walk(cache_dir):
        for name in files:
            if not name.endswith(".bin"):
                continue
            path = os.path.join(root, name)
            with open(path, "r+b") as handle:
                blob = bytearray(handle.read())
                blob[len(blob) // 2] ^= 0xFF
                handle.seek(0)
                handle.write(blob)
            flipped += 1
    return flipped


def test_warm_start_replays_cold_outcome_exactly(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))

    plain = run_module(generated, config=CONFIG)
    cold = run_module(generated, config=persistent)
    warm = run_module(generated, config=persistent)

    assert outcome_fingerprint(plain) == outcome_fingerprint(cold)
    assert outcome_fingerprint(cold) == outcome_fingerprint(warm)
    assert cold.stats.disk_cache_hits == 0
    assert cold.stats.disk_cache_misses > 0
    assert warm.stats.disk_cache_hits > 0
    assert warm.stats.disk_cache_misses == 0


def test_corrupted_store_degrades_to_cold_with_warnings(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))
    cold = run_module(generated, config=persistent)
    assert _flip_all_entries(str(tmp_path / "cache")) > 0

    damaged = run_module(generated, config=persistent)
    assert outcome_fingerprint(damaged) == outcome_fingerprint(cold)
    assert damaged.stats.disk_cache_hits == 0
    warnings = [e for e in damaged.events
                if e.get("event") == "disk-cache-warning"]
    assert warnings, "every damaged entry must be reported, not crash"
    # The warning log is run metadata, not part of the outcome: the
    # fingerprint comparison above already proved it stays excluded.


def test_missing_store_root_is_a_plain_cold_start(tmp_path, generated):
    persistent = CONFIG.with_cache_dir(str(tmp_path / "never-created"))
    result = run_module(generated, config=persistent)
    assert result.stats.disk_cache_hits == 0
    assert result.stats.disk_cache_misses > 0
    assert not [e for e in result.events
                if e.get("event") == "disk-cache-warning"]


def test_editing_one_operation_reuses_the_rest(tmp_path):
    """The incremental workflow: edit one operation, keep the other hits."""
    text = open(EXAMPLE, encoding="utf-8").read()
    definition = load_module_file(EXAMPLE)
    persistent = CONFIG.with_cache_dir(str(tmp_path / "cache"))

    cold = run_module(definition, config=persistent)
    sections = cold.stats.disk_cache_misses
    assert sections > 2

    edited_text = text.replace("| Nil -> Nil", "| Nil -> empty", 1)
    assert edited_text != text
    edited = load_module_text(edited_text, path=EXAMPLE)
    warm = run_module(edited, config=persistent)

    # Exactly one section (the edited operation's memo) misses.
    assert warm.stats.disk_cache_misses == 1
    assert warm.stats.disk_cache_hits == sections - 1
    assert warm.status == cold.status
    assert warm.render_invariant() == cold.render_invariant()


def test_disabled_persistence_records_nothing(generated):
    result = run_module(generated, config=CONFIG)
    assert result.stats.disk_cache_hits == 0
    assert result.stats.disk_cache_misses == 0


@pytest.mark.fuzz
def test_differential_check_passes_on_example_module():
    definition = load_module_file(EXAMPLE)
    assert persistent_cache_mismatches(definition) == []


@pytest.mark.fuzz
def test_differential_check_passes_on_generated_corpus():
    for module in generate_corpus(3, 3):
        assert persistent_cache_mismatches(module.definition) == []

"""The differential check table: one comparator, one runner, every check.

``repro.gen.diff.CHECKS`` names each differential check with its run tags
and the modes it applies to.  These tests pin the table, the comparator's
rendering (tags in table order, ``(missing)`` for absent runs), the run
counting, the persistence check's refusal to pass vacuously, and that the
CLI shrinker re-runs the check that failed rather than the cache matrix.
"""

import os
import subprocess
import sys

import pytest

from repro.gen import diff
from repro.gen.diff import CHECKS, DifferentialMismatch, fuzz_module
from repro.gen.modgen import generate_corpus, generate_module
from repro.spec import load_module_file

pytestmark = pytest.mark.fuzz

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def module_zero():
    return generate_module(0)


def test_check_table_names_tags_and_modes():
    assert list(CHECKS) == ["cache", "canonical", "verifier", "persistence"]
    assert CHECKS["cache"].tags == ("ec+pc", "ec-only", "pc-only", "no-caches")
    assert CHECKS["verifier"].tags == ("enumerative", "ladder")
    assert CHECKS["persistence"].tags == (
        "no-persistence", "cold-store", "warm-store", "corrupt-store")
    for name in ("cache", "canonical"):
        assert CHECKS[name].applies("oneshot")
    for name in ("verifier", "persistence"):
        assert CHECKS[name].applies("hanoi-src")
        assert not CHECKS[name].applies("oneshot")


def test_describe_lists_the_check_tags_in_table_order():
    mismatch = DifferentialMismatch(
        benchmark="/gen/x", mode="hanoi", kind="persistence",
        fingerprints={"warm-store": {"status": "success"},
                      "no-persistence": {"status": "timeout"}})
    lines = mismatch.describe().splitlines()
    assert lines[0] == "/gen/x [hanoi]: persistent cache disagree"
    assert [line.split()[0] for line in lines[1:]] == list(
        CHECKS["persistence"].tags)
    assert "(missing)" in lines[2] and "(missing)" in lines[4]
    assert "timeout" in lines[1] and "success" in lines[3]


def test_runs_are_counted_per_check(fast_config, module_zero):
    report = fuzz_module(module_zero.definition, modes=("hanoi", "oneshot"),
                         config=fast_config, require_success=(),
                         check_oracle=False, checks=tuple(CHECKS))
    assert report.ok, [m.describe() for m in report.mismatches]
    # cache: 4 per mode; canonical: 2 per mode; verifier: 2 and
    # persistence: 4, for the Hanoi mode only.
    assert report.runs == 8 + 4 + 2 + 4


def test_persistence_check_is_not_vacuous(fast_config, module_zero,
                                          monkeypatch):
    """A corruption step that flips nothing leaves the corrupt-store run
    warm; its outcome still agrees, so only the vacuity rule can fail it."""
    monkeypatch.setattr(diff, "_corrupt_store", lambda directory: 0)
    report = fuzz_module(module_zero.definition, modes=("hanoi",),
                         config=fast_config, require_success=(),
                         check_oracle=False, checks=("persistence",))
    assert [m.kind for m in report.mismatches] == ["persistence"]
    fingerprints = report.mismatches[0].fingerprints
    assert fingerprints["corrupt-store"]["vacuous"] == (
        "corruption flipped no store entry")
    assert "vacuous" not in fingerprints["warm-store"]


def test_soundness_mismatches_keep_the_obligation_out_of_the_mode(
        module_zero, monkeypatch, fast_config):
    from repro.analysis import absint

    # A (false) claim that the specification holds for every value: the
    # trivially-true candidate then has an enumerated counterexample.
    monkeypatch.setattr(absint.AbstractChecker, "sufficiency_verdict",
                        lambda self: absint.PROVEN)
    mismatches = diff.verifier_soundness_mismatches(
        module_zero.definition, config=fast_config, mode="hanoi-src")
    assert mismatches
    for mismatch in mismatches:
        assert (mismatch.kind, mismatch.mode) == ("verifier", "hanoi-src")
        assert mismatch.fingerprints["ladder"]["verdict"] == "proven"
        assert mismatch.fingerprints["enumerative"]["verdict"] == "counterexample"
    assert any(m.fingerprints["ladder"]["obligation"] == "sufficiency/always-true"
               for m in mismatches)


_FAULTED_FUZZ = """
import sys
from repro.gen import diff
from repro.cli import main

def hook(definitions):
    def corrupt(benchmark, mode, tag, fingerprint):
        if tag == "ladder":
            return dict(fingerprint, status="fault-injected")
        return fingerprint
    return corrupt

diff._env_fault_hook = hook
sys.exit(main(sys.argv[1:]))
"""


def test_cli_shrinks_a_mismatch_of_a_non_cache_check(tmp_path):
    out = str(tmp_path / "fuzz-out")
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    env.pop(diff.FAULT_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTED_FUZZ, "fuzz", "--seed", "0",
         "--count", "1", "--modes", "hanoi", "--jobs", "1", "--timeout", "90",
         "--no-oracle", "--check", "verifier", "--out", out],
        capture_output=True, text=True, env=env, cwd=_REPO, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "verifier backends disagree" in proc.stdout
    assert "cache variants disagree" not in proc.stdout
    assert "shrink:" not in proc.stdout, proc.stdout
    files = os.listdir(os.path.join(out, "reproducers"))
    assert len(files) == 1
    minimal = load_module_file(os.path.join(out, "reproducers", files[0]))
    original = generate_corpus(0, 1)[0].definition
    assert len(minimal.operations) < len(original.operations)

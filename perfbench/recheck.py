"""Independent confirmation of every inferred invariant.

Each success is re-checked outside the timed region with fresh, cache-free
checkers:

* ``spec`` (built-ins and packs): the invariant must be sufficient for the
  specification and fully inductive at ``PAPER_VERIFIER_BOUNDS`` (Section
  4.3), larger than the quick bounds inference ran at;
* ``oracle`` (the generated corpus): the inferred invariant must imply the
  module's ground-truth invariant on every enumerated value, at the run's
  own quick bounds - the rule ``repro.gen.diff`` applies to fuzzed modules.

A verdict is a pure function of the program source, the module, the
invariant and the bounds, so verdicts are memoized on disk under a key that
digests all four; a run re-checks only what no earlier run of the same
program checked.  Misses run in a few child processes of this script
(``python3 recheck.py MEMO_DIR DIGEST`` with the tasks as JSON on standard
input), each of which stores its verdicts in the memo; the parent waits for
every child, and kills and waits for them on any way out.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

#: (kind, reference, rule, invariant source): kind is "builtin" (reference
#: is a registry name) or "text" (reference is the module's .hanoi text);
#: rule is "oracle" or "spec" (see the module docstring).
Task = Tuple[str, str, str, str]

CONFIRMED = "confirmed"
REJECTED = "rejected"

#: Worker processes for memo misses (the benchmark host has 2 cores).
WORKERS = 2


def program_digest(root: str) -> str:
    """A digest of the program source, the example packs and this checker."""
    digest = hashlib.sha256()
    files = [os.path.abspath(__file__)]
    for top, suffix in (("src", ".py"), ("examples", ".hanoi")):
        for base, dirs, names in os.walk(os.path.join(root, top)):
            dirs.sort()
            files.extend(os.path.join(base, n) for n in sorted(names) if n.endswith(suffix))
    for path in files:
        digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _definition(kind: str, reference: str):
    if kind == "builtin":
        from repro.suite.registry import get_benchmark
        return get_benchmark(reference)
    from repro.spec.loader import load_module_text
    return load_module_text(reference, path="<recheck>")


def check(task: Task) -> Tuple[str, str]:
    """(verdict, detail) for one (module, invariant) pair."""
    from repro.core.config import FAST_VERIFIER_BOUNDS, PAPER_VERIFIER_BOUNDS
    from repro.core.predicate import Predicate
    from repro.inductive.relation import ConditionalInductivenessChecker
    from repro.verify.result import Valid
    from repro.verify.tester import Verifier

    kind, reference, rule, invariant_source = task
    definition = _definition(kind, reference)
    instance = definition.instantiate()
    inferred = Predicate.from_source(invariant_source, instance.program)
    if rule == "oracle":
        oracle = Predicate.from_source(definition.expected_invariant, instance.program)
        verdict = Verifier(instance, bounds=FAST_VERIFIER_BOUNDS).check_predicate(
            lambda v: (not inferred(v)) or oracle(v))
        if not isinstance(verdict, Valid):
            return REJECTED, f"accepts {verdict.witnesses[0]}, which the ground truth rejects"
        return CONFIRMED, "implies the ground truth"
    bounds = PAPER_VERIFIER_BOUNDS
    sufficiency = Verifier(instance, bounds=bounds).check_sufficiency(inferred)
    if not isinstance(sufficiency, Valid):
        return REJECTED, f"not sufficient: {', '.join(map(str, sufficiency.witnesses))}"
    inductive = ConditionalInductivenessChecker(instance, bounds=bounds).check(inferred, inferred)
    if not isinstance(inductive, Valid):
        return REJECTED, f"not inductive under {inductive.operation}"
    return CONFIRMED, "sufficient and inductive"


class Rechecker:
    """Verdict memo on disk plus the pool that fills it."""

    def __init__(self, memo_dir: str, digest: str) -> None:
        self.memo_dir = memo_dir
        self.digest = digest
        self.computed = 0

    def _path(self, task: Task) -> str:
        key = hashlib.sha256("\0".join((self.digest,) + task).encode("utf-8")).hexdigest()
        return os.path.join(self.memo_dir, key[:2], key + ".json")

    def _load(self, task: Task) -> Optional[Tuple[str, str]]:
        try:
            with open(self._path(task), encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            return None
        return stored["verdict"], stored["detail"]

    def _store(self, task: Task, outcome: Tuple[str, str]) -> None:
        path = self._path(task)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"verdict": outcome[0], "detail": outcome[1]}, handle)
        os.replace(tmp, path)

    def verdicts(self, tasks: List[Task]) -> Dict[Task, Tuple[str, str]]:
        """The verdict of every distinct task, computing the memo misses."""
        results: Dict[Task, Tuple[str, str]] = {}
        missing: List[Task] = []
        for task in dict.fromkeys(tasks):
            stored = self._load(task)
            if stored is None:
                missing.append(task)
            else:
                results[task] = stored
        if missing:
            self._compute(missing)
            for task in missing:
                stored = self._load(task)
                if stored is None:
                    raise RuntimeError(f"recheck worker left no verdict for {task[:2]}")
                results[task] = stored
            self.computed += len(missing)
        return results

    def _compute(self, tasks: List[Task]) -> None:
        """Check ``tasks`` in up to :data:`WORKERS` child processes, which
        store their verdicts in the memo; return once every child has ended."""
        shares = [tasks[i::WORKERS] for i in range(min(WORKERS, len(tasks)))]
        children: List[subprocess.Popen] = []
        try:
            for share in shares:
                child = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), self.memo_dir, self.digest],
                    stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
                children.append(child)
                child.stdin.write(json.dumps(share).encode("utf-8"))
                child.stdin.close()
            codes = [child.wait() for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
        if any(codes):
            raise RuntimeError(f"recheck workers exited with {codes}")


def _worker(memo_dir: str, digest: str) -> None:
    """Child process: check the tasks on standard input into the memo."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    checker = Rechecker(memo_dir, digest)
    for task in json.load(sys.stdin):
        task = tuple(task)
        checker._store(task, check(task))


if __name__ == "__main__":
    _worker(sys.argv[1], sys.argv[2])

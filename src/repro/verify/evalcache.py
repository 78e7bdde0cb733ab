"""Cross-iteration verification evaluation caching.

Section 4.4's principle - never throw away work the loop will redo - is
applied by the seed reproduction to *synthesis* (result caching, trace
caching) but not to *verification*, even though the Hanoi loop calls
``Verify`` dozens of times per run and most of each call's work is
candidate-independent:

* In a sufficiency check (Definition 3.4), the specification's truth value on
  a quantifier assignment does not depend on the candidate invariant, so it
  is worth computing at most once per run.  :class:`SpecStream` materializes
  the quantifier enumeration (suspending wherever a check stopped) and holds
  one verdict slot per assignment.  Verdicts stay *lazy* - the spec runs only
  when some candidate accepts the assignment's witnesses, exactly as in the
  uncached check, so a short run never pays for verdicts no check needed.
  Once known, a verdict is final: spec-true assignments are skipped by every
  later check without touching the candidate at all, and spec-falsifying
  ones reduce to predicate evaluations over their recorded witnesses.

* In a (conditional) inductiveness check (Figure 3), applying a module
  operation to an argument assignment - including the abstract values it was
  supplied, the abstract values it produced, the higher-order contract-log
  crossings, and whether it crashed - is likewise candidate-independent; the
  candidate only enters through the cheap ``P``/``Q`` predicate filters.
  :class:`OperationMemo` memoizes one :class:`OperationRecord` per
  ``(operation, assignment)`` pair, so re-checks replay records instead of
  re-interpreting object-language code.

Both stores hang off one per-run :class:`EvaluationCache`, created by
:class:`~repro.core.hanoi.HanoiInference` when
``HanoiConfig.evaluation_caching`` is enabled (the default) and shared by the
:class:`~repro.verify.tester.Verifier` and the
:class:`~repro.inductive.relation.ConditionalInductivenessChecker`.  The
cache changes no verdict: a cached check returns exactly the counterexample
(or ``VALID``) the uncached enumeration would, in the same order - see
``tests/verify/test_evalcache.py`` for the end-to-end equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..lang.errors import LangError
from ..lang.values import Value, is_first_order, value_order

__all__ = ["EvaluationCache", "SpecStream", "SpecEntry", "OperationMemo", "OperationRecord"]


class SpecEntry:
    """One materialized quantifier assignment and its (lazy) spec verdict.

    ``verdict`` is ``None`` while unknown, then ``True``/``False`` forever
    (the spec is pure).  Once known, the fields later checks cannot need are
    dropped: a spec-true assignment keeps nothing, a spec-falsifying one
    keeps its abstract-type ``witnesses`` (what a counterexample reports) and
    the evaluation ``error`` if the application crashed rather than returning
    ``false`` - re-raised only when a candidate accepts the witnesses,
    mirroring the uncached order of evaluation, where the spec runs only on
    accepted assignments.
    """

    __slots__ = ("assignment", "witnesses", "verdict", "error")

    def __init__(self, assignment: Tuple[Value, ...], witnesses: Tuple[Value, ...]) -> None:
        self.assignment: Optional[Tuple[Value, ...]] = assignment
        self.witnesses: Optional[Tuple[Value, ...]] = witnesses
        self.verdict: Optional[bool] = None
        self.error: Optional[LangError] = None

    def resolve(self, verdict: bool, error: Optional[LangError] = None) -> None:
        """Record the spec's verdict and drop what no later check can need."""
        self.verdict = verdict
        self.error = error
        self.assignment = None
        if verdict:
            self.witnesses = None

    def export(self) -> Tuple[object, object, Optional[bool]]:
        """The entry as a plain ``(assignment, witnesses, verdict)`` tuple.

        Every field is a first-order value tuple or a primitive, so the
        export pickles and unpickles across processes and hash seeds.  The
        stored ``error`` of a crashed resolution is deliberately *not*
        exported (see :meth:`SpecStream.export_entries`).
        """
        return (self.assignment, self.witnesses, self.verdict)

    @classmethod
    def restore(cls, exported: Tuple[object, object, Optional[bool]]) -> "SpecEntry":
        """Rebuild an entry from :meth:`export` output."""
        assignment, witnesses, verdict = exported
        entry = cls.__new__(cls)
        entry.assignment = assignment
        entry.witnesses = witnesses
        entry.verdict = verdict
        entry.error = None
        return entry


class SpecStream:
    """The sufficiency enumeration of one run, materialized at most once.

    ``entries`` holds one :class:`SpecEntry` per assignment in enumeration
    (diagonal) order; ``iterator`` is the suspended enumeration positioned at
    the frontier; ``exhausted`` is set once the enumeration's budget ran dry.
    The :class:`~repro.verify.tester.Verifier` owns the replay/resume logic;
    this class is deliberately dumb storage so the enumeration semantics stay
    in one place.
    """

    def __init__(self) -> None:
        self.entries: List[SpecEntry] = []
        self.iterator: Optional[Iterator[Tuple[Value, ...]]] = None
        self.exhausted = False

    def export_entries(self) -> Tuple[List[Tuple[object, object, Optional[bool]]], bool]:
        """A picklable ``(entries, exhausted)`` snapshot of the stream.

        Entries are exported in enumeration order up to (but excluding) the
        first entry that cannot round-trip: an error-bearing resolution
        (language errors carry positional constructors that do not all
        survive pickling, and a resolved entry has already dropped the
        assignment needed to re-derive its error lazily) or an assignment
        containing function values (identity-hashed, meaningless in another
        process).  Truncating is always safe - a warm run re-enumerates the
        suffix from the suspended iterator exactly as a cold run would - and
        a truncated snapshot is never marked exhausted.
        """
        exported: List[Tuple[object, object, Optional[bool]]] = []
        for entry in self.entries:
            if entry.error is not None:
                return exported, False
            if entry.assignment is not None and \
                    not all(is_first_order(v) for v in entry.assignment):
                return exported, False
            if entry.witnesses is not None and \
                    not all(is_first_order(v) for v in entry.witnesses):
                return exported, False
            exported.append(entry.export())
        return exported, self.exhausted

    def restore_entries(self,
                        exported: List[Tuple[object, object, Optional[bool]]],
                        exhausted: bool) -> None:
        """Adopt an :meth:`export_entries` snapshot into an empty stream.

        Only valid before the stream has been touched (fresh per-run cache):
        restored entries must occupy the positions the enumeration would
        assign them, so the verifier's resume logic can fast-forward the
        suspended iterator past ``len(entries)`` assignments.
        """
        if self.entries or self.iterator is not None:
            raise ValueError("SpecStream.restore_entries on a non-empty stream")
        self.entries = [SpecEntry.restore(item) for item in exported]
        self.exhausted = bool(exhausted)


@dataclass(frozen=True)
class OperationRecord:
    """The candidate-independent outcome of one operation application.

    ``supplied`` are the abstract values found in the argument assignment,
    ``produced`` the abstract values the module emitted (operation result plus
    module-to-client contract crossings), ``client_to_module`` the abstract
    values client-supplied functions returned into the module, and ``crashed``
    whether the application raised (crashing applications of enumerated,
    possibly nonsensical functional arguments carry no evidence).
    """

    supplied: Tuple[Value, ...]
    produced: Tuple[Value, ...]
    client_to_module: Tuple[Value, ...]
    crashed: bool


class OperationMemo:
    """Memoizes :class:`OperationRecord`s per ``(operation, assignment)``.

    Assignments are tuples of first-order values (structural hashing) and
    enumerated function values (identity hashing; the
    :class:`~repro.enumeration.functions.FunctionEnumerator` memoizes its
    pools, so the same function objects recur across checks).  ``max_entries``
    bounds memory: a full memo keeps answering lookups but stops storing new
    records, which only costs speed, never correctness.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        self.max_entries = max_entries
        self._records: Dict[Tuple[str, Tuple[Value, ...]], OperationRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, operation: str, assignment: Tuple[Value, ...]) -> Optional[OperationRecord]:
        return self._records.get((operation, assignment))

    def put(self, operation: str, assignment: Tuple[Value, ...],
            record: OperationRecord) -> None:
        if len(self._records) < self.max_entries:
            self._records[(operation, assignment)] = record

    def export_records(self) -> List[Tuple[Tuple[str, Tuple[Value, ...]], OperationRecord]]:
        """Picklable ``(key, record)`` pairs in a hash-seed-independent order.

        Entries whose assignment contains function values are skipped: those
        hash by identity, so a pickled copy in a fresh process would never be
        looked up again.  First-order assignments and records (values are
        frozen ``VCtor``/``VTuple`` trees) round-trip exactly.
        """
        exported = [
            (key, record) for key, record in self._records.items()
            if all(is_first_order(v) for v in key[1])
        ]
        # Assignments share their values (they come from a few enumerated
        # pools), so each value's order key is computed once.
        orders: Dict[Value, tuple] = {}

        def order(value: Value) -> tuple:
            found = orders.get(value)
            if found is None:
                found = orders[value] = value_order(value)
            return found

        exported.sort(key=lambda item: (item[0][0], tuple(map(order, item[0][1]))))
        return exported

    def restore_records(self,
                        items: List[Tuple[Tuple[str, Tuple[Value, ...]],
                                          OperationRecord]]) -> int:
        """Adopt :meth:`export_records` output; returns the number adopted."""
        adopted = 0
        for key, record in items:
            if len(self._records) >= self.max_entries:
                break
            if key not in self._records:
                self._records[key] = record
                adopted += 1
        return adopted


class EvaluationCache:
    """Per-run store of candidate-independent verification work.

    One instance is shared by the verifier (``spec``) and the inductiveness
    checker (``operations``) of a run; ablation modes simply never create one.
    Hit/miss counters live in :class:`~repro.core.stats.InferenceStats`
    (``eval_cache_hits`` / ``eval_cache_misses``), incremented at the use
    sites so the cache itself stays a pure store.
    """

    def __init__(self, max_operation_entries: int = 200_000,
                 content_key: str = "") -> None:
        self.spec = SpecStream()
        self.operations = OperationMemo(max_operation_entries)
        #: Canonical content hash of the module the cached work belongs to
        #: (``repro.analysis.canon.canonical_hash``).  Alpha-equivalent
        #: modules share a key, so persisted or cross-run reuse is keyed by
        #: behaviour rather than source spelling.  Empty when unknown.
        self.content_key = content_key

    def snapshot(self) -> Dict[str, object]:
        """Deterministic occupancy counts, stamped on ``cache-snapshot`` trace
        events so ``repro trace`` can report cache growth per run."""
        snapshot: Dict[str, object] = {
            "spec_entries": len(self.spec.entries),
            "spec_exhausted": self.spec.exhausted,
            "operation_entries": len(self.operations),
        }
        if self.content_key:
            snapshot["content_key"] = self.content_key
        return snapshot

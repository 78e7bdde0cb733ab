"""Call-by-value evaluator for the object language.

The evaluator is a straightforward environment-passing interpreter with a
*fuel* budget.  Fuel bounds the number of evaluation steps so that the Hanoi
loop can safely run synthesized candidates and enumerated functional
arguments without risking non-termination (all benchmark code is structurally
recursive, but the budget also protects against pathological inputs).

Native function values (:class:`~repro.lang.values.VNative`) are applied by
calling their Python callable; this is how the synthesizer's example oracle
and the higher-order contract wrappers participate in evaluation.

Closure applications are pure when the argument, every captured value and
the result are first-order: the body then sees nothing but those values and
the globals.  The evaluator memoizes such applications (the verifier re-runs
``insert s x`` for every ``y``, and the same Peano comparisons throughout a
check).  A hit charges the budget the step count the application took when
it was recorded, so fuel runs out at exactly the application where it would
have without the memo.  Only successful results are stored, natives never
appear in a key (so contract wrappers still log every crossing and the
synthesizer's oracle is still consulted), the table holds at most
:data:`MEMO_CAPACITY` entries, and binding a global clears it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .ast import (
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    EApp,
    Expr,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
)
from .errors import EvalError, FuelExhausted, MatchFailure
from .values import Value, VClosure, VCtor, VNative, VTuple, is_first_order

__all__ = ["Evaluator", "EvalBudget", "DEFAULT_FUEL", "MEMO_CAPACITY"]

DEFAULT_FUEL = 500_000

#: Entries the application memo holds before it is cleared; 0 disables it.
MEMO_CAPACITY = 2_000

# The interpreter recurses on expression and data depth; benchmark values are
# small, but deep Peano naturals in stress tests need head-room.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)


@dataclass
class EvalBudget:
    """A mutable step counter shared across nested evaluations."""

    remaining: int = DEFAULT_FUEL

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise FuelExhausted("evaluation step budget exhausted")


class Evaluator:
    """Evaluates expressions in a global environment of top-level values."""

    def __init__(self, globals_: Optional[Dict[str, Value]] = None, fuel: int = DEFAULT_FUEL):
        self.globals: Dict[str, Value] = globals_ if globals_ is not None else {}
        self.default_fuel = fuel
        #: (id(body), param, rec_name, env items, argument) -> (result, steps,
        #: body).  The entry holds the body so its id cannot be reused by a
        #: new expression while the entry exists.
        self._memo: Dict[tuple, Tuple[Value, int, Expr]] = {}

    def bind(self, name: str, value: Value) -> None:
        """Bind a global.  Memoized results may depend on the old binding,
        so the memo is cleared."""
        self.globals[name] = value
        self._memo.clear()

    # -- public API -----------------------------------------------------------

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
             budget: Optional[EvalBudget] = None) -> Value:
        """Evaluate ``expr`` to a value in local environment ``env``."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        return self._eval(expr, env or {}, budget)

    def apply(self, fn: Value, *args: Value, budget: Optional[EvalBudget] = None) -> Value:
        """Apply a function value to arguments, left to right."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        result = fn
        for arg in args:
            result = self._apply(result, arg, budget)
        return result

    # -- core evaluation --------------------------------------------------------

    def _eval(self, expr: Expr, env: Dict[str, Value], budget: EvalBudget) -> Value:
        budget.spend()

        if isinstance(expr, EVar):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.globals:
                return self.globals[expr.name]
            raise EvalError(f"unbound variable at runtime: {expr.name}")

        if isinstance(expr, ECtor):
            payload = self._eval(expr.payload, env, budget) if expr.payload is not None else None
            return VCtor(expr.ctor, payload)

        if isinstance(expr, ETuple):
            return VTuple(tuple(self._eval(e, env, budget) for e in expr.items))

        if isinstance(expr, EProj):
            value = self._eval(expr.expr, env, budget)
            if not isinstance(value, VTuple) or expr.index >= len(value.items):
                raise EvalError(f"invalid projection from {value}")
            return value.items[expr.index]

        if isinstance(expr, EApp):
            fn = self._eval(expr.fn, env, budget)
            arg = self._eval(expr.arg, env, budget)
            return self._apply(fn, arg, budget)

        if isinstance(expr, EFun):
            return VClosure(expr.param, expr.param_type, expr.body, dict(env))

        if isinstance(expr, ELet):
            value = self._eval(expr.value, env, budget)
            inner = dict(env)
            inner[expr.name] = value
            return self._eval(expr.body, inner, budget)

        if isinstance(expr, EMatch):
            scrutinee = self._eval(expr.scrutinee, env, budget)
            for branch in expr.branches:
                bindings = match_pattern(branch.pattern, scrutinee)
                if bindings is not None:
                    inner = dict(env)
                    inner.update(bindings)
                    return self._eval(branch.body, inner, budget)
            raise MatchFailure(f"no branch matched value {scrutinee}")

        raise EvalError(f"unknown expression node: {expr!r}")

    def _apply(self, fn: Value, arg: Value, budget: EvalBudget) -> Value:
        budget.spend()
        if isinstance(fn, VClosure):
            key = None
            # A body that is itself a function only builds a closure: skip it.
            if MEMO_CAPACITY > 0 and not isinstance(fn.body, EFun) and is_first_order(arg):
                captured = tuple(fn.env.items())
                if all(is_first_order(value) for _, value in captured):
                    key = (id(fn.body), fn.param, fn.rec_name, captured, arg)
                    entry = self._memo.get(key)
                    if entry is not None:
                        steps = entry[1]
                        if steps <= budget.remaining:
                            budget.remaining -= steps
                            return entry[0]
                        # Run out exactly as the step-by-step evaluation does:
                        # one step past the budget.
                        budget.spend(max(budget.remaining, 0) + 1)
            env = dict(fn.env)
            env[fn.param] = arg
            if fn.rec_name is not None:
                env[fn.rec_name] = fn
            before = budget.remaining
            result = self._eval(fn.body, env, budget)
            if key is not None and is_first_order(result):
                memo = self._memo
                if len(memo) >= MEMO_CAPACITY:
                    memo.clear()
                memo[key] = (result, before - budget.remaining, fn.body)
            return result
        if isinstance(fn, VNative):
            return fn.fn(arg)
        raise EvalError(f"application of non-function value {fn}")


def match_pattern(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Return the bindings produced by matching ``value`` against ``pattern``,
    or ``None`` when the pattern does not match."""
    if isinstance(pattern, PWild):
        return {}
    if isinstance(pattern, PVar):
        return {pattern.name: value}
    if isinstance(pattern, PCtor):
        if not isinstance(value, VCtor) or value.ctor != pattern.ctor:
            return None
        if pattern.payload is None:
            return {}
        if value.payload is None:
            return None
        return match_pattern(pattern.payload, value.payload)
    if isinstance(pattern, PTuple):
        if not isinstance(value, VTuple) or len(value.items) != len(pattern.items):
            return None
        bindings: Dict[str, Value] = {}
        for sub_pattern, sub_value in zip(pattern.items, value.items):
            sub_bindings = match_pattern(sub_pattern, sub_value)
            if sub_bindings is None:
                return None
            bindings.update(sub_bindings)
        return bindings
    raise EvalError(f"unknown pattern node: {pattern!r}")

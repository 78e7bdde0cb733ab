"""Call-by-value evaluator for the object language.

The evaluator runs expressions in an environment with a *fuel* budget.  Fuel
bounds the number of evaluation steps so that the Hanoi loop can safely run
synthesized candidates and enumerated functional arguments without risking
non-termination (all benchmark code is structurally recursive, but the
budget also protects against pathological inputs).  Every expression node
costs one step and every application one more.

Expressions are compiled, once per evaluator, into Python closures
``run(env, budget)`` (see :class:`_Compiler`); the closures charge exactly
the steps, in exactly the order, of a node-by-node interpretation, so fuel
runs out at the same step with ``budget.remaining == -1``.

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
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

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

__all__ = ["Evaluator", "EvalBudget", "DEFAULT_FUEL", "MEMO_CAPACITY", "match_pattern"]

DEFAULT_FUEL = 500_000

#: Entries the application memo holds before it is cleared; 0 disables it.
MEMO_CAPACITY = 2_000

# Compiled code recurses on expression and data depth (about four Python
# frames per object-language call); benchmark values are small, but deep
# Peano naturals in stress tests need head-room.
if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

_EXHAUSTED = "evaluation step budget exhausted"


@dataclass
class EvalBudget:
    """A mutable step counter shared across nested evaluations."""

    remaining: int = DEFAULT_FUEL

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise FuelExhausted(_EXHAUSTED)


def _bind(fn: VClosure, arg: Value) -> Dict[str, Value]:
    """The environment ``fn``'s body runs in when applied to ``arg``."""
    env = dict(fn.env)
    env[fn.param] = arg
    if fn.rec_name is not None:
        env[fn.rec_name] = fn
    return env


def _exhaust(budget: EvalBudget) -> None:
    """Fail a group of steps the budget cannot cover, as one-at-a-time
    charging does: at the first step past zero."""
    budget.remaining = min(budget.remaining, 0) - 1
    raise FuelExhausted(_EXHAUSTED)


Run = Callable[[Dict[str, Value], EvalBudget], Value]


class Evaluator:
    """Evaluates expressions in a global environment of top-level values."""

    def __init__(self, globals_: Optional[Dict[str, Value]] = None, fuel: int = DEFAULT_FUEL):
        self.globals: Dict[str, Value] = globals_ if globals_ is not None else {}
        self.default_fuel = fuel
        #: (id(body), param, rec_name, env items, argument) -> (result, steps,
        #: body).  The entry holds the body so its id cannot be reused by a
        #: new expression while the entry exists.
        self._memo: Dict[tuple, Tuple[Value, int, Expr]] = {}
        self._compiler = _Compiler(self.globals, self._memo)

    def bind(self, name: str, value: Value) -> None:
        """Bind a global.  Memoized results may depend on the old binding,
        so the memo is cleared.  Compiled code reads globals when it runs,
        so it stays valid."""
        self.globals[name] = value
        self._memo.clear()

    # -- public API -----------------------------------------------------------

    def eval(self, expr: Expr, env: Optional[Dict[str, Value]] = None,
             budget: Optional[EvalBudget] = None) -> Value:
        """Evaluate ``expr`` to a value in local environment ``env``."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        env = env or {}
        return self._compiler.root(expr, frozenset(env))(env, budget)

    def apply(self, fn: Value, *args: Value, budget: Optional[EvalBudget] = None) -> Value:
        """Apply a function value to arguments, left to right."""
        if budget is None:
            budget = EvalBudget(self.default_fuel)
        apply = self._compiler.apply
        result = fn
        for arg in args:
            result = apply(result, arg, budget)
        return result


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def _simple_size(expr: Expr) -> int:
    """The node count of a *simple* expression, 0 for any other.

    A variable, a constructor or a tuple built only from such parts is
    simple: reading it can fail only on an unbound name, so its steps can be
    charged in one subtraction.
    """
    cls = expr.__class__
    if cls is EVar:
        return 1
    if cls is ECtor:
        if expr.payload is None:
            return 1
        inner = _simple_size(expr.payload)
        return inner + 1 if inner else 0
    if cls is ETuple:
        total = 1
        for item in expr.items:
            inner = _simple_size(item)
            if not inner:
                return 0
            total += inner
        return total
    return 0


class _Compiler:
    """Compiles expressions of one evaluator into closures ``run(env, budget)``.

    Every closure charges one step per node and one per application, in the
    order of a node-by-node interpretation.  Four shapes are compiled
    specially:

    * *Fused groups.*  A simple expression (see :func:`_simple_size`) is read
      without a call, and its steps are charged in one subtraction; so are a
      call's application nodes, head and simple first argument, and a
      match's step and variable scrutinee.  Nothing in a group can fail but
      the budget and an unbound name.  When the budget cannot cover the
      group, or a read finds no binding, the group is replayed node by node,
      so :class:`FuelExhausted` and :class:`EvalError` arise at exactly the
      same step (with ``remaining == -1`` for fuel).
    * *Calls.*  A curried call ``f a1 ... an`` with a variable head runs in
      one closure instead of n nested applications.
    * *Direct partial application.*  Applying a closure whose body is a
      function builds the next closure at once, with one environment copy;
      when a call supplies the next argument straight away, the closure is
      not built at all.
    * *Match tables.*  A match whose arms are all constructor patterns with
      flat payloads (``C``, ``C x``, ``C _``, ``C (x, _, z)``) dispatches on
      the constructor through a table.  Other matches try precompiled
      pattern matchers in order.

    Compiled code is cached by ``id`` of the root expression (an evaluated
    expression or a closure body); each entry holds its expression, so the
    id cannot be reused while the entry lives, which is as long as the
    evaluator.  Globals are looked up when the code runs, so binding one
    leaves the cache valid.  ``scope``, the names expected in the
    environment at compile time, only picks which lookup a fused read tries
    first; it changes speed, never results.
    """

    def __init__(self, globals_: Dict[str, Value], memo: Dict[tuple, tuple]):
        self.globals = globals_
        #: id(root expression) -> (expression, compiled code).
        self.code: Dict[int, Tuple[Expr, Run]] = {}
        self.apply, self.enter = self._make_application(memo)

    def root(self, expr: Expr, scope: FrozenSet[str]) -> Run:
        """The cached compiled code of a root expression."""
        entry = self.code.get(id(expr))
        if entry is None:
            entry = (expr, self.compile(expr, scope))
            self.code[id(expr)] = entry
        return entry[1]

    # -- application ------------------------------------------------------------

    def _make_application(self, memo: Dict[tuple, tuple]):
        """``(apply, enter)``: apply any function value, and enter a closure
        given its parts (so a call can enter one it never built)."""
        code = self.code
        root = self.root

        def enter(fn: Optional[VClosure], body: Expr, param: str, rec_name: Optional[str],
                  captured_env: Dict[str, Value], arg: Value, budget: EvalBudget) -> Value:
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_EXHAUSTED)
            key = None
            if MEMO_CAPACITY > 0 and is_first_order(arg):
                captured = tuple(captured_env.items())
                for _, value in captured:
                    if not is_first_order(value):
                        break
                else:
                    key = (id(body), param, rec_name, captured, arg)
                    entry = memo.get(key)
                    if entry is not None:
                        steps = entry[1]
                        if steps <= remaining:
                            budget.remaining = remaining - steps
                            return entry[0]
                        # Run out exactly as the step-by-step evaluation does:
                        # one step past the budget.
                        _exhaust(budget)
            env = dict(captured_env)
            env[param] = arg
            if rec_name is not None:
                env[rec_name] = fn
            entry = code.get(id(body))
            run = entry[1] if entry is not None else root(body, frozenset(env))
            result = run(env, budget)
            if key is not None and is_first_order(result):
                if len(memo) >= MEMO_CAPACITY:
                    memo.clear()
                memo[key] = (result, remaining - budget.remaining, body)
            return result

        def apply(fn: Value, arg: Value, budget: EvalBudget) -> Value:
            if fn.__class__ is VClosure:
                body = fn.body
                if body.__class__ is not EFun:
                    return enter(fn, body, fn.param, fn.rec_name, fn.env, arg, budget)
                # The application's step and the body's: nothing between them
                # can fail, so one check charges both.
                remaining = budget.remaining - 2
                if remaining < 0:
                    _exhaust(budget)
                budget.remaining = remaining
                return VClosure(body.param, body.param_type, body.body, _bind(fn, arg))
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_EXHAUSTED)
            if fn.__class__ is VNative:
                return fn.fn(arg)
            raise EvalError(f"application of non-function value {fn}")

        return apply, enter

    # -- expressions ------------------------------------------------------------

    def compile(self, expr: Expr, scope: FrozenSet[str]) -> Run:
        """The closure for ``expr``; ``scope`` holds the names expected in
        the environment."""
        cls = expr.__class__
        if cls is EVar:
            return self._var(expr.name)
        if cls is EApp:
            return self._call(expr, scope)
        if cls is EMatch:
            return self._match(expr, scope)
        size = _simple_size(expr)
        if size:
            return self._fused(expr, size, scope)
        if cls is ECtor:
            return _run_ctor(expr.ctor, self.compile(expr.payload, scope))
        if cls is ETuple:
            return _run_tuple(tuple(self.compile(item, scope) for item in expr.items))
        if cls is EProj:
            return _run_proj(expr.index, self.compile(expr.expr, scope))
        if cls is EFun:
            return _run_fun(expr)
        if cls is ELet:
            return _run_let(expr.name, self.compile(expr.value, scope),
                            self.compile(expr.body, scope | {expr.name}))
        return _run_unknown(expr)

    def _var(self, name: str) -> Run:
        globals_ = self.globals

        def run_var(env, budget):
            remaining = budget.remaining - 1
            budget.remaining = remaining
            if remaining < 0:
                raise FuelExhausted(_EXHAUSTED)
            try:
                return env[name]
            except KeyError:
                pass
            if name in globals_:
                return globals_[name]
            raise EvalError(f"unbound variable at runtime: {name}")
        return run_var

    # -- fused groups -------------------------------------------------------------

    def reader(self, expr: Expr, scope: FrozenSet[str]) -> Callable[[Dict[str, Value]], Value]:
        """``read(env)`` for a simple expression: its value, or ``KeyError``
        when a name is not found where the scope guess expects it."""
        cls = expr.__class__
        if cls is EVar:
            name = expr.name
            if name in scope:
                return lambda env: env[name]
            globals_ = self.globals
            return lambda env: env[name] if name in env else globals_[name]
        if cls is ECtor:
            ctor = expr.ctor
            if expr.payload is None:
                value = VCtor(ctor)
                return lambda env: value
            names = _local_names(expr.payload, scope)
            if names is not None:
                return lambda env: VCtor(ctor, VTuple(tuple(map(env.__getitem__, names))))
            payload = self.reader(expr.payload, scope)
            return lambda env: VCtor(ctor, payload(env))
        names = _local_names(expr, scope)
        if names is not None:
            return lambda env: VTuple(tuple(map(env.__getitem__, names)))
        items = tuple(self.reader(item, scope) for item in expr.items)
        return lambda env: VTuple(tuple([item(env) for item in items]))

    def _node_by_node(self, expr: Expr, scope: FrozenSet[str]) -> Run:
        """The replay of a simple expression: one node, one step at a time."""
        cls = expr.__class__
        if cls is EVar:
            return self._var(expr.name)
        if cls is ECtor:
            if expr.payload is None:
                return _run_constant(VCtor(expr.ctor))
            return _run_ctor(expr.ctor, self._node_by_node(expr.payload, scope))
        return _run_tuple(tuple(self._node_by_node(item, scope) for item in expr.items))

    def _fused(self, expr: Expr, size: int, scope: FrozenSet[str]) -> Run:
        """A simple expression that is not a variable, charged at once."""
        if size == 1:
            return _run_constant(VCtor(expr.ctor))
        read = self.reader(expr, scope)
        replay = _lazy(lambda: self._node_by_node(expr, scope))

        def run_fused(env, budget):
            remaining = budget.remaining - size
            if remaining >= 0:
                try:
                    value = read(env)
                except KeyError:
                    return replay(env, budget)
                budget.remaining = remaining
                return value
            return replay(env, budget)
        return run_fused

    def _call(self, expr: EApp, scope: FrozenSet[str]) -> Run:
        """A curried call ``f a1 ... an`` with a variable head, run by one
        closure.

        The n application nodes, ``f`` and a simple ``a1`` are charged in one
        group; each later simple argument is its own group, read inline, and
        replayed through its own code when it cannot be charged or read.  A
        closure that only takes the next argument is built directly.  Any
        other head runs node by node.
        """
        apply = self.apply
        enter = self.enter
        args: List[Expr] = []
        node: Expr = expr
        while node.__class__ is EApp:
            args.append(node.arg)
            node = node.fn
        args.reverse()
        head = node
        if head.__class__ is not EVar:
            run = self.compile(head, scope)
            for arg in args:
                run = _run_app(run, self.compile(arg, scope), apply)
            return run
        sizes = [_simple_size(arg) for arg in args]
        # A simple argument is read inline; its own code only replays it.
        runs = [_lazy(lambda arg=arg: self.compile(arg, scope)) if size
                else self.compile(arg, scope) for arg, size in zip(args, sizes)]

        def node_by_node() -> Run:
            run = self._var(head.name)
            for arg_run in runs:
                run = _run_app(run, arg_run, apply)
            return run
        replay = _lazy(node_by_node)
        name = head.name
        globals_ = self.globals
        first_read = self.reader(args[0], scope) if sizes[0] else None
        first_run = runs[0]
        first_cost = len(args) + 1 + sizes[0]
        rest = tuple((self.reader(arg, scope) if size else None, size, run)
                     for arg, size, run in zip(args[1:], sizes[1:], runs[1:]))

        def run_call(env, budget):
            remaining = budget.remaining - first_cost
            if remaining < 0:
                return replay(env, budget)
            function = env[name] if name in env else globals_.get(name)
            if function is None:
                return replay(env, budget)
            if first_read is not None:
                try:
                    value = first_read(env)
                except KeyError:
                    return replay(env, budget)
                budget.remaining = remaining
            else:
                budget.remaining = remaining
                value = first_run(env, budget)
            # ``pending``: the body of a closure taking the next argument, not
            # built yet; ``bound`` is its environment.
            pending = None
            for read, size, run in rest:
                if pending is not None:
                    function = VClosure(pending.param, pending.param_type, pending.body, bound)
                    pending = None
                if function.__class__ is VClosure and function.body.__class__ is EFun:
                    # Direct partial application, as in ``apply``.
                    remaining = budget.remaining - 2
                    if remaining < 0:
                        _exhaust(budget)
                    budget.remaining = remaining
                    bound = _bind(function, value)
                    pending = function.body
                else:
                    function = apply(function, value, budget)
                if read is not None:
                    remaining = budget.remaining - size
                    try:
                        if remaining < 0:
                            raise KeyError
                        value = read(env)
                    except KeyError:
                        value = run(env, budget)
                    else:
                        budget.remaining = remaining
                else:
                    value = run(env, budget)
            if pending is not None:
                return enter(None, pending.body, pending.param, None, bound, value, budget)
            if function.__class__ is VClosure and function.body.__class__ is not EFun:
                return enter(function, function.body, function.param, function.rec_name,
                             function.env, value, budget)
            return apply(function, value, budget)
        return run_call

    # -- matches ------------------------------------------------------------------

    def _match(self, expr: EMatch, scope: FrozenSet[str]) -> Run:
        """A match; a variable scrutinee is fused with the match's step, and
        a table of constructor arms dispatches without trying each arm."""
        arms = tuple(
            (_compile_pattern(branch.pattern),
             self.compile(branch.body, scope | _pattern_names(branch.pattern)))
            for branch in expr.branches)

        def in_order(value, env, budget):
            for matcher, body in arms:
                bindings = matcher(value)
                if bindings is not None:
                    if bindings:
                        inner = dict(env)
                        for name, bound in bindings:
                            inner[name] = bound
                        return body(inner, budget)
                    return body(env, budget)
            raise MatchFailure(f"no branch matched value {value}")

        scrutinee = self.compile(expr.scrutinee, scope)
        table = _arm_table(expr, arms)
        if table is None:
            return _run_match(scrutinee, in_order)
        # A variable in scope is read in the match's own step group; any
        # other scrutinee runs its own code after the match's step.
        local = expr.scrutinee.name if (expr.scrutinee.__class__ is EVar
                                        and expr.scrutinee.name in scope) else None
        replay = _run_match(scrutinee, in_order)

        def run_match_table(env, budget):
            if local is not None:
                remaining = budget.remaining - 2
                if remaining < 0 or local not in env:
                    return replay(env, budget)
                budget.remaining = remaining
                value = env[local]
            else:
                remaining = budget.remaining - 1
                budget.remaining = remaining
                if remaining < 0:
                    raise FuelExhausted(_EXHAUSTED)
                value = scrutinee(env, budget)
            if value.__class__ is VCtor:
                arm = table.get(value.ctor)
                if arm is not None:
                    kind, names, body = arm
                    if kind is _NULLARY:
                        return body(env, budget)
                    payload = value.payload
                    if kind is _BIND:
                        if payload is not None:
                            return body({**env, names: payload}, budget)
                    elif kind is _TUPLE:
                        if payload.__class__ is VTuple and len(payload.items) == len(names):
                            inner = dict(env)
                            for name, item in zip(names, payload.items):
                                if name is not None:
                                    inner[name] = item
                            return body(inner, budget)
                    elif payload is not None:
                        return body(env, budget)
            # Not a table shape (or a payload the arm's pattern rejects): the
            # arms in order decide, and raise when none matches.
            return in_order(value, env, budget)

        return run_match_table


# -- node-by-node closures ----------------------------------------------------------


def _lazy(build: Callable[[], Run]) -> Run:
    """Code compiled on its first run: replays are rare, so most are never
    built."""
    built: List[Run] = []

    def run_lazily(env, budget):
        if not built:
            built.append(build())
        return built[0](env, budget)
    return run_lazily


def _run_constant(value: Value) -> Run:
    def run_constant(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        return value
    return run_constant


def _run_ctor(ctor: str, payload: Run) -> Run:
    def run_ctor(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        return VCtor(ctor, payload(env, budget))
    return run_ctor


def _run_tuple(items: Tuple[Run, ...]) -> Run:
    def run_tuple(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        return VTuple(tuple([item(env, budget) for item in items]))
    return run_tuple


def _run_proj(index: int, inner: Run) -> Run:
    def run_proj(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        value = inner(env, budget)
        if value.__class__ is not VTuple or index >= len(value.items):
            raise EvalError(f"invalid projection from {value}")
        return value.items[index]
    return run_proj


def _run_app(fn: Run, arg: Run, apply) -> Run:
    def run_app(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        function = fn(env, budget)
        return apply(function, arg(env, budget), budget)
    return run_app


def _run_fun(expr: EFun) -> Run:
    param, param_type, body = expr.param, expr.param_type, expr.body

    def run_fun(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        return VClosure(param, param_type, body, dict(env))
    return run_fun


def _run_let(name: str, value: Run, body: Run) -> Run:
    def run_let(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        bound = value(env, budget)
        inner = dict(env)
        inner[name] = bound
        return body(inner, budget)
    return run_let


def _run_match(scrutinee: Run, dispatch) -> Run:
    def run_match(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        return dispatch(scrutinee(env, budget), env, budget)
    return run_match


def _run_unknown(expr: Expr) -> Run:
    def run_unknown(env, budget):
        remaining = budget.remaining - 1
        budget.remaining = remaining
        if remaining < 0:
            raise FuelExhausted(_EXHAUSTED)
        raise EvalError(f"unknown expression node: {expr!r}")
    return run_unknown


def _local_names(expr: Expr, scope: FrozenSet[str]) -> Optional[Tuple[str, ...]]:
    """The names of a tuple of in-scope variables, else ``None``."""
    if expr.__class__ is not ETuple:
        return None
    names = []
    for item in expr.items:
        if item.__class__ is not EVar or item.name not in scope:
            return None
        names.append(item.name)
    return tuple(names)


# -- patterns ---------------------------------------------------------------------

#: Arm kinds of a match table: ``C``, ``C x``, ``C (x, _, ...)`` and ``C _``.
_NULLARY, _BIND, _TUPLE, _WILD = "nullary", "bind", "tuple", "wild"

Matcher = Callable[[Value], Optional[List[Tuple[str, Value]]]]


def _arm_table(expr: EMatch, arms) -> Optional[Dict[str, tuple]]:
    """Constructor -> (kind, names, body) when every arm is a constructor
    pattern with a flat payload; the first arm of a constructor wins."""
    table: Dict[str, tuple] = {}
    for branch, (_, body) in zip(expr.branches, arms):
        pattern = branch.pattern
        if pattern.__class__ is not PCtor:
            return None
        payload = pattern.payload
        if payload is None:
            arm = (_NULLARY, None, body)
        elif payload.__class__ is PVar:
            arm = (_BIND, payload.name, body)
        elif payload.__class__ is PWild:
            arm = (_WILD, None, body)
        elif payload.__class__ is PTuple and all(
                p.__class__ is PVar or p.__class__ is PWild for p in payload.items):
            names = tuple(p.name if p.__class__ is PVar else None for p in payload.items)
            arm = (_TUPLE, names, body)
        else:
            return None
        table.setdefault(pattern.ctor, arm)
    return table


def _pattern_names(pattern: Pattern) -> FrozenSet[str]:
    cls = pattern.__class__
    if cls is PVar:
        return frozenset((pattern.name,))
    if cls is PCtor and pattern.payload is not None:
        return _pattern_names(pattern.payload)
    if cls is PTuple:
        names: FrozenSet[str] = frozenset()
        for item in pattern.items:
            names |= _pattern_names(item)
        return names
    return frozenset()


def _compile_pattern(pattern: Pattern) -> Matcher:
    """``match(value)``: the bindings of a match in pattern order, or ``None``."""
    cls = pattern.__class__
    if cls is PWild:
        return lambda value: []
    if cls is PVar:
        name = pattern.name
        return lambda value: [(name, value)]
    if cls is PCtor:
        ctor = pattern.ctor
        if pattern.payload is None:
            return lambda value: [] if value.__class__ is VCtor and value.ctor == ctor else None
        sub = _compile_pattern(pattern.payload)

        def match_ctor(value):
            if value.__class__ is not VCtor or value.ctor != ctor or value.payload is None:
                return None
            return sub(value.payload)
        return match_ctor
    if cls is PTuple:
        subs = tuple(_compile_pattern(item) for item in pattern.items)
        arity = len(subs)

        def match_tuple(value):
            if value.__class__ is not VTuple or len(value.items) != arity:
                return None
            bindings: List[Tuple[str, Value]] = []
            for sub, item in zip(subs, value.items):
                found = sub(item)
                if found is None:
                    return None
                bindings.extend(found)
            return bindings
        return match_tuple

    def match_unknown(value):
        raise EvalError(f"unknown pattern node: {pattern!r}")
    return match_unknown


def match_pattern(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Return the bindings produced by matching ``value`` against ``pattern``,
    or ``None`` when the pattern does not match."""
    bindings = _compile_pattern(pattern)(value)
    return None if bindings is None else dict(bindings)

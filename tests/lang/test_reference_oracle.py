"""The compiled evaluator against the tree-walking reference oracle.

Every call is run by both evaluators on equal budgets.  They must agree on
the value (or the exception type) and on ``budget.remaining``; a sweep of
budgets around the call's exact cost must run out at the same step.  The
calls cover every declaration of the built-in benchmarks and the example
packs on enumerated arguments, each module's specification on a sample of
enumerated assignments, and hand-written expressions that reach the
compiler's replay paths (unbound names inside fused groups, short budgets,
shadowed globals, nested patterns, stuck terms).
"""

import itertools
import os

import pytest
from reference_eval import ReferenceEvaluator

from repro.enumeration.values import ValueEnumerator
from repro.lang.ast import (
    Branch, ELet, EMatch, EProj, EVar, FunDecl, PCtor, PTuple, PVar, PWild)
from repro.lang.errors import MatchFailure
from repro.lang.eval import EvalBudget
from repro.lang.parser import parse_expression, parse_program
from repro.lang.prelude import PRELUDE_SOURCE
from repro.lang.program import Program
from repro.lang.types import TArrow
from repro.lang.values import VCtor, VNative, is_first_order, nat_of_int, v_list
from repro.spec.loader import load_module_file
from repro.suite.registry import all_benchmark_names, get_benchmark

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "modules")
PRELUDE_NAMES = frozenset(decl.name for decl in parse_program(PRELUDE_SOURCE)
                          if isinstance(decl, FunDecl))

#: Enumerated candidates per argument type, arguments tuples per call site.
VALUES_PER_TYPE, CALLS_PER_DECL, SPEC_CALLS = 24, 4, 8


def _outcome(run, fuel):
    budget = EvalBudget(fuel)
    try:
        value = run(budget)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return ("raise", type(error).__name__), budget.remaining
    if not is_first_order(value):
        value = type(value).__name__
    return ("value", value), budget.remaining


def _agree(compiled, reference, fuel=200_000):
    """Check one call at ``fuel`` and at budgets around its exact cost."""
    outcome, remaining = _outcome(compiled, fuel)
    assert (outcome, remaining) == _outcome(reference, fuel)
    cost = fuel - remaining
    for short in sorted({cost - 2, cost - 1, cost, cost + 1, cost // 2}):
        if short >= 0:
            assert _outcome(compiled, short) == _outcome(reference, short), short
    return outcome


def _oracle(program):
    return ReferenceEvaluator(program.evaluator.globals, program.evaluator.default_fuel)


def _spread(values, count):
    """``count`` values spread evenly over ``values`` (smallest first)."""
    if len(values) <= count:
        return list(values)
    step = (len(values) - 1) / (count - 1)
    return [values[round(i * step)] for i in range(count)]


def _argument_pools(program, types):
    enumerator = ValueEnumerator(program.types)
    pools = []
    for ty in types:
        if isinstance(ty, TArrow):
            pool = [value for name, value in sorted(program.evaluator.globals.items())
                    if program.types.globals.get(name) == ty][:2]
        else:
            pool = list(enumerator.enumerate(ty, max_size=7, max_count=VALUES_PER_TYPE))
        if not pool:
            return None
        pools.append(_spread(pool, 3))
    return pools


def _calls(program, fn, types, count):
    pools = _argument_pools(program, types)
    if pools is None:
        return []
    combos = list(itertools.product(*pools))
    return [(fn, args) for args in _spread(combos, count)]


def _check_calls(program, calls):
    oracle = _oracle(program)
    evaluator = program.evaluator
    outcomes = []
    for fn, args in calls:
        outcomes.append(_agree(
            lambda budget: evaluator.apply(fn, *args, budget=budget),
            lambda budget: oracle.apply(fn, *args, budget=budget)))
    return outcomes


def _declaration_calls(program, skip=frozenset()):
    calls = []
    for decl in program.declarations:
        if not isinstance(decl, FunDecl) or decl.name in skip or not decl.params:
            continue
        fn = program.global_value(decl.name)
        calls += _calls(program, fn, [ty for _, ty in decl.params], CALLS_PER_DECL)
    return calls


def _modules():
    modules = [get_benchmark(name) for name in all_benchmark_names()]
    for filename in sorted(os.listdir(EXAMPLES)):
        if filename.endswith(".hanoi"):
            modules.append(load_module_file(os.path.join(EXAMPLES, filename)))
    return modules


MODULES = _modules()


def test_prelude_declarations_agree():
    program = Program.from_source("")
    calls = _declaration_calls(program)
    assert len(calls) >= 3 * len(PRELUDE_NAMES)
    _check_calls(program, calls)


@pytest.mark.parametrize("definition", MODULES, ids=[m.name for m in MODULES])
def test_module_declarations_and_spec_agree(definition):
    instance = definition.instantiate()
    program = instance.program
    calls = _declaration_calls(program, skip=PRELUDE_NAMES)
    assert calls, "no declaration could be called"
    spec_calls = _calls(program, instance.spec_value(), instance.spec_concrete_signature(),
                        SPEC_CALLS)
    assert spec_calls, "the specification could not be called"
    outcomes = _check_calls(program, calls + spec_calls)
    assert any(kind == "value" for kind, _ in outcomes)


# -- hand-written replay paths ----------------------------------------------------------

SOURCE = """
type list = Nil | Cons of nat * list
type tree = Leaf | Node of tree * nat * tree

let rec size (t : tree) : nat =
  match t with
  | Leaf -> O
  | Node (l, _, r) -> S (plus (size l) (size r))

let rec second (l : list) : natoption =
  match l with
  | Cons (_, Cons (y, _)) -> SomeN y
  | _ -> NoneN

let swap (p : nat * nat) : nat * nat =
  match p with
  | (a, b) -> (b, a)

let pick (l : list) : nat =
  match l with
  | Cons _ -> S O
  | Nil -> O

let shadow (succ : nat -> nat) (x : nat) : nat = succ (succ x)

let pairs (x : nat) (y : nat) : list =
  let p = (x, y) in
  match p with
  | (a, b) -> Cons (a, Cons (b, Nil))
"""

EXPRESSIONS = [
    "Cons (x, Cons (y, Nil))",
    "Cons (x, Cons (missing, Nil))",
    "(x, (y, S x), O)",
    "(x, missing)",
    "plus x y",
    "plus missing y",
    "plus x missing",
    "missing x",
    "x y",
    "plus (S x) (S (S y))",
    "(fun (z : nat) -> plus z x) y",
    ELet("z", parse_expression("(x, y)"), EProj(1, EVar("z"))),
    EProj(0, parse_expression("plus x y")),
    "let z = missing in z",
    "let z = plus x y in Cons (z, Nil)",
    "match x with | O -> y | S k -> S (S k)",
    "match missing with | O -> y | S k -> k",
    "match (x, y) with | (O, _) -> y | (S k, j) -> plus k j",
    "match x with | S (S k) -> k | _ -> O",
    "match x with | S k -> k",
    "match Cons (x, Nil) with | Cons (h, t) -> h | Nil -> O",
    "match Cons (x, Nil) with | Nil -> O | Cons _ -> S O",
    "match x with | k -> S k",
    "match x with | S k -> k | S j -> S (S j) | O -> O",
    # A table arm whose payload pattern rejects the value: the next arm wins.
    EMatch(EVar("y"), (Branch(PCtor("S", PTuple((PVar("a"), PVar("b")))), EVar("a")),
                       Branch(PCtor("S", PVar("k")), EVar("k")),
                       Branch(PCtor("O", PVar("k")), EVar("k")))),
    EMatch(EVar("y"), (Branch(PCtor("O", PWild()), EVar("y")),
                       Branch(PCtor("S", PWild()), EVar("x")))),
    "size (Node (Node (Leaf, x, Leaf), y, Leaf))",
    "second (Cons (x, Cons (y, Nil)))",
    "second (Cons (x, Nil))",
    "swap (x, y)",
    "pick (Cons (y, Nil))",
    "shadow (fun (n : nat) -> S (S n)) x",
    "pairs x y",
    "plus",
    "nat_leq x",
]


@pytest.fixture(scope="module")
def program():
    return Program.from_source(SOURCE)


@pytest.mark.parametrize("expr", [parse_expression(e) if isinstance(e, str) else e
                                  for e in EXPRESSIONS], ids=str)
def test_expressions_agree_at_every_budget(program, expr):
    oracle = _oracle(program)
    env = {"x": nat_of_int(2), "y": nat_of_int(1)}
    evaluator = program.evaluator
    _agree(lambda budget: evaluator.eval(expr, env, budget),
           lambda budget: oracle.eval(expr, env, budget))
    full = EvalBudget(10_000)
    try:
        evaluator.eval(expr, env, full)
    except Exception:  # noqa: BLE001 - a stuck term is still swept
        pass
    for fuel in range(0, 10_000 - full.remaining + 2):
        assert (_outcome(lambda budget: evaluator.eval(expr, env, budget), fuel)
                == _outcome(lambda budget: oracle.eval(expr, env, budget), fuel)), fuel


def test_stuck_terms_and_natives_agree(program):
    oracle = _oracle(program)
    evaluator = program.evaluator

    def refuse(value):
        raise MatchFailure("native refused")

    cases = [
        (EProj(3, parse_expression("(x, y)")), {"x": VCtor("O"), "y": VCtor("O")}),
        (parse_expression("f x"), {"f": VNative(refuse), "x": VCtor("O")}),
        (parse_expression("f (S x)"), {"f": VNative(lambda v: v), "x": VCtor("O")}),
        (parse_expression("second l"), {"l": v_list([nat_of_int(i) for i in range(3)])}),
    ]
    for expr, env in cases:
        outcome = _agree(lambda budget: evaluator.eval(expr, env, budget),
                         lambda budget: oracle.eval(expr, env, budget))
        assert outcome is not None


def test_negative_budgets_fail_like_the_oracle(program):
    oracle = _oracle(program)
    pairs = program.global_value("pairs")
    args = (nat_of_int(1), nat_of_int(2))
    for fuel in (-3, -1):
        compiled = _outcome(lambda budget: program.evaluator.apply(pairs, *args, budget=budget),
                            fuel)
        assert compiled == _outcome(lambda budget: oracle.apply(pairs, *args, budget=budget),
                                    fuel)
        assert compiled[1] == fuel - 1

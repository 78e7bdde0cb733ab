"""Unit tests for the evaluator and the Program wrapper."""

import pytest

from repro.lang.errors import EvalError, FuelExhausted, MatchFailure
from repro.lang.eval import EvalBudget, Evaluator, match_pattern
from repro.lang.parser import parse_expression
from repro.lang.program import Program
from repro.lang.values import (
    VCtor,
    VNative,
    VTuple,
    bool_of_value,
    int_of_nat,
    nat_of_int,
    v_list,
)
from repro.lang.ast import PCtor, PTuple, PVar, PWild


@pytest.fixture(scope="module")
def program():
    return Program.from_source("""
type list = Nil | Cons of nat * list

let rec length (l : list) : nat =
  match l with
  | Nil -> O
  | Cons (hd, tl) -> S (length tl)

let rec append (a : list) (b : list) : list =
  match a with
  | Nil -> b
  | Cons (hd, tl) -> Cons (hd, append tl b)

let twice (f : nat -> nat) (x : nat) : nat = f (f x)
""")


def test_prelude_arithmetic(program):
    assert int_of_nat(program.call("plus", nat_of_int(2), nat_of_int(3))) == 5
    assert int_of_nat(program.call("minus", nat_of_int(7), nat_of_int(3))) == 4
    assert int_of_nat(program.call("nat_max", nat_of_int(2), nat_of_int(9))) == 9
    assert bool_of_value(program.call("nat_leq", nat_of_int(3), nat_of_int(3)))
    assert not bool_of_value(program.call("nat_lt", nat_of_int(3), nat_of_int(3)))


def test_recursive_list_functions(program):
    values = v_list([nat_of_int(i) for i in (4, 1, 2)])
    assert int_of_nat(program.call("length", values)) == 3
    appended = program.call("append", values, v_list([nat_of_int(9)]))
    assert int_of_nat(program.call("length", appended)) == 4


def test_higher_order_application(program):
    succ = program.global_value("succ")
    assert int_of_nat(program.call("twice", succ, nat_of_int(3))) == 5


def test_native_function_applies(program):
    double = VNative(lambda v: nat_of_int(int_of_nat(v) * 2), name="double")
    assert int_of_nat(program.call("twice", double, nat_of_int(3))) == 12


def test_eval_expression_with_env(program):
    expr = parse_expression("plus x (S x)")
    result = program.eval_expr(expr, {"x": nat_of_int(2)})
    assert int_of_nat(result) == 5


def test_match_failure_raises(program):
    evaluator = Evaluator({})
    expr = parse_expression("match x with | O -> O")
    with pytest.raises(MatchFailure):
        evaluator.eval(expr, {"x": nat_of_int(1)})


def test_unbound_variable_raises(program):
    with pytest.raises(EvalError):
        program.eval_expr(parse_expression("unknown_variable"))


def test_fuel_exhaustion(program):
    big = nat_of_int(40)
    with pytest.raises(FuelExhausted):
        program.call("plus", big, big, fuel=20)


def test_application_of_non_function_raises(program):
    with pytest.raises(EvalError):
        program.apply(nat_of_int(1), nat_of_int(2))


def test_match_pattern_bindings():
    value = VCtor("Cons", VTuple((nat_of_int(1), VCtor("Nil"))))
    bindings = match_pattern(PCtor("Cons", PTuple((PVar("hd"), PVar("tl")))), value)
    assert int_of_nat(bindings["hd"]) == 1
    assert bindings["tl"] == VCtor("Nil")
    assert match_pattern(PCtor("Nil"), value) is None
    assert match_pattern(PWild(), value) == {}


def test_budget_is_shared_across_nested_calls():
    budget = EvalBudget(5)
    budget.spend(3)
    budget.spend(2)
    with pytest.raises(FuelExhausted):
        budget.spend(1)


# -- application memo -----------------------------------------------------------

MEMO_SOURCE = """
type list = Nil | Cons of nat * list

let rec insert (l : list) (x : nat) : list =
  match l with
  | Nil -> Cons (x, Nil)
  | Cons (hd, tl) ->
    (match nat_leq x hd with
     | True -> Cons (x, l)
     | False -> Cons (hd, insert tl x))

let twice (f : nat -> nat) (x : nat) : nat = f (f x)
"""

INSERT_ARGS = (v_list([nat_of_int(i) for i in (1, 3, 5, 7)]), nat_of_int(6))


def _insert_steps(program, fuel=100_000):
    """Steps ``insert`` takes on :data:`INSERT_ARGS` (filling the memo)."""
    budget = EvalBudget(fuel)
    program.evaluator.apply(program.global_value("insert"), *INSERT_ARGS, budget=budget)
    return fuel - budget.remaining


def test_memo_hit_returns_same_value_and_budget():
    program = Program.from_source(MEMO_SOURCE)
    insert = program.global_value("insert")
    first, second = EvalBudget(10_000), EvalBudget(10_000)
    result = program.evaluator.apply(insert, *INSERT_ARGS, budget=first)
    assert program.evaluator._memo
    assert program.evaluator.apply(insert, *INSERT_ARGS, budget=second) == result
    assert second.remaining == first.remaining


def test_memo_charges_the_unmemoized_step_count(monkeypatch):
    import repro.lang.eval as lang_eval

    program = Program.from_source(MEMO_SOURCE)
    steps = _insert_steps(program)
    assert _insert_steps(program) == steps
    monkeypatch.setattr(lang_eval, "MEMO_CAPACITY", 0)
    unmemoized = Program.from_source(MEMO_SOURCE)
    assert _insert_steps(unmemoized) == steps
    assert not unmemoized.evaluator._memo


def test_memo_hit_one_step_short_exhausts_fuel_like_a_miss():
    steps = _insert_steps(Program.from_source(MEMO_SOURCE))
    program = Program.from_source(MEMO_SOURCE)
    insert = program.global_value("insert")
    short = EvalBudget(steps - 1)
    with pytest.raises(FuelExhausted):
        program.evaluator.apply(insert, *INSERT_ARGS, budget=short)
    assert short.remaining == -1
    # The exhausted run recorded no outermost entry; a successful one does.
    assert _insert_steps(program) == steps
    for fuel in (steps - 1, steps // 2):
        short = EvalBudget(fuel)
        with pytest.raises(FuelExhausted):
            program.evaluator.apply(insert, *INSERT_ARGS, budget=short)
        # Spent one step past the budget, as the step-by-step miss does.
        assert short.remaining == -1
    exact = EvalBudget(steps)
    program.evaluator.apply(insert, *INSERT_ARGS, budget=exact)
    assert exact.remaining == 0


def test_memo_keeps_contract_crossings_logged_on_every_call():
    from repro.contracts.higherorder import ContractLog, wrap_function
    from repro.lang.types import TAbstract, TArrow

    program = Program.from_source(MEMO_SOURCE)
    log = ContractLog()
    succ = wrap_function(program.global_value("succ"), TArrow(TAbstract(), TAbstract()),
                         program, log)
    for calls in (1, 2, 3):
        assert int_of_nat(program.call("twice", succ, nat_of_int(3))) == 5
        assert len(log.module_to_client) == len(log.client_to_module) == 2 * calls


def test_memo_is_invalidated_when_extend_rebinds_a_global():
    program = Program.from_source("""
let offset (x : nat) : nat = O
let shifted (x : nat) : nat = plus x (offset x)
""")
    assert int_of_nat(program.call("shifted", nat_of_int(2))) == 2
    program.extend("let offset (x : nat) : nat = S x")
    assert int_of_nat(program.call("shifted", nat_of_int(2))) == 5


def test_collected_predicate_cannot_answer_for_a_new_body():
    import gc

    from repro.core.predicate import Predicate

    program = Program.from_source(MEMO_SOURCE)
    value = nat_of_int(2)
    for _ in range(50):
        accepting = Predicate.from_source("let inv (x : nat) : bool = True", program)
        assert accepting(value)
        del accepting
        gc.collect()
        rejecting = Predicate.from_source("let inv (x : nat) : bool = False", program)
        assert not rejecting(value)
        del rejecting
        gc.collect()


# -- recursion head-room -----------------------------------------------------------


def test_deep_peano_recursion_fits_the_recursion_limit(monkeypatch):
    """A 4000-deep structural recursion evaluates without RecursionError in
    exactly the steps the tree-walking interpreter took.

    This pins the evaluator's own Python frames per level against
    ``sys.setrecursionlimit(20_000)``.  Two other limits are kept out of the
    way: the memo hashes its argument, and hashing a 4000-deep value
    recurses in C, which Python 3.12 bounds separately; and before Python
    3.11 every Python call also uses C stack, more than a default main
    thread has, so the evaluation runs in a thread with a large stack.
    """
    import threading

    import repro.lang.eval as lang_eval

    monkeypatch.setattr(lang_eval, "MEMO_CAPACITY", 0)
    program = Program.from_source("""
let rec add (a : nat) (b : nat) : nat =
  match a with
  | O -> b
  | S x -> S (add x b)
""")
    budget = EvalBudget(1_000_000)
    results = []

    def evaluate():
        try:
            results.append(program.evaluator.apply(
                program.global_value("add"), nat_of_int(4000), nat_of_int(1), budget=budget))
        except RecursionError as error:
            results.append(error)

    previous = threading.stack_size(256 * 1024 * 1024)
    try:
        worker = threading.Thread(target=evaluate)
        worker.start()
    finally:
        threading.stack_size(previous)
    worker.join()
    assert not isinstance(results[0], RecursionError), results[0]
    assert int_of_nat(results[0]) == 4001
    assert 1_000_000 - budget.remaining == 44_006

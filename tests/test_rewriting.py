import random

import pytest

from wordshift.rewriting import (RewritingSystem, TuringMachine, one_step,
                                 one_step_labeled, reachable,
                                 replay_derivation, rewrite_power_search,
                                 tm_run, tm_to_rewriting)

from conftest import all_words, queue_reachable, rand_system, w

A_TO_B = RewritingSystem(("a", "b"), [(w("a"), w("b"))])
AA_TO_BB = RewritingSystem(("a", "b"), [(w("aa"), w("bb"))])
SWAP = RewritingSystem(("a", "b"), [(w("ab"), w("ba"))])

SINGLE_MOVE = TuringMachine(
    states=("q0", "qf"), input_alphabet=(), tape_alphabet=("B",),
    delta={("q0", "B"): [("qf", "B", "R")]},
    start="q0", blank="B", final="qf")

LOOPER = TuringMachine(
    states=("q0", "qf"), input_alphabet=(), tape_alphabet=("B",),
    delta={("q0", "B"): [("q0", "B", "R")]},
    start="q0", blank="B", final="qf")

LEFT_HALTER = TuringMachine(
    states=("q0", "qf"), input_alphabet=(), tape_alphabet=("B",),
    delta={("q0", "B"): [("qf", "B", "L")]},
    start="q0", blank="B", final="qf")

TWO_CELL_WRITER = TuringMachine(
    states=("q0", "q1", "qf"), input_alphabet=(), tape_alphabet=("B", "X"),
    delta={
        ("q0", "B"): [("q1", "X", "R")],
        ("q0", "X"): [("q1", "X", "R")],
        ("q1", "B"): [("qf", "B", "L")],
        ("q1", "X"): [("qf", "X", "L")],
    },
    start="q0", blank="B", final="qf")


def test_system_validation():
    with pytest.raises(ValueError, match="length-preserving"):
        RewritingSystem(("a", "b"), [(w("a"), w("bb"))])
    with pytest.raises(ValueError, match="not in alphabet"):
        RewritingSystem(("a",), [(w("a"), w("b"))])


def test_one_step_examples():
    assert one_step(A_TO_B, w("aa")) == {w("ab"), w("ba")}
    assert one_step(A_TO_B, ()) == set()
    assert one_step(AA_TO_BB, w("aaa")) == {w("bba"), w("abb")}


def test_one_step_preserves_length():
    rng = random.Random(401)
    for _ in range(20):
        s = rand_system(rng)
        for word in all_words(("a", "b"), 5):
            assert all(len(nxt) == len(word) for nxt in one_step(s, word))


def test_one_step_labeled_order():
    labeled = one_step_labeled(AA_TO_BB, w("aaa"))
    assert labeled == [(w("bba"), 0, 0), (w("abb"), 0, 1)]


def test_reachable_examples():
    out = reachable(A_TO_B, w("aaa"), w("bbb"))
    assert out.is_yes and len(out.witness["steps"]) == 3
    assert replay_derivation(A_TO_B, out.witness["derivation"], out.witness["steps"])

    out = reachable(SWAP, w("aab"), w("baa"))
    assert out.is_yes
    assert replay_derivation(SWAP, out.witness["derivation"], out.witness["steps"])

    # the letter multiset is invariant, and the search proves it exhaustively
    out = reachable(SWAP, w("ab"), w("bb"))
    assert out.is_no and out.note == "exhaustive"


def test_reachable_zero_steps_and_length_guard():
    out = reachable(A_TO_B, w("ab"), w("ab"))
    assert out.is_yes and out.witness["steps"] == []
    assert reachable(A_TO_B, w("a"), w("bb")).is_no


def test_reachable_budget_truncation():
    out = reachable(SWAP, w("aaab"), w("baaa"), step_budget=2)
    assert out.is_unknown and out.bound == 2


def test_reachable_matches_queue_search():
    # The deque search that reachable replaced stays as the oracle: the
    # whole outcome, derivation and budget cutoffs included, must agree.
    rng = random.Random(402)
    verdicts = set()
    for _ in range(120):
        alphabet = ("a", "b", "c")[:rng.randint(2, 3)]
        s = rand_system(rng, alphabet, max_rules=4)
        length = rng.randint(0, 5)
        frm = tuple(rng.choice(alphabet) for _ in range(length))
        to = tuple(rng.choice(alphabet) for _ in range(length))
        for budget in (None, -1, 0, 1, 2, 3, 5):
            out = reachable(s, frm, to, budget)
            assert out == queue_reachable(s, frm, to, budget)
            verdicts.add(out.verdict)
    assert verdicts == {"yes", "no", "unknown"}


def test_rewrite_power_search_examples():
    assert rewrite_power_search(A_TO_B, "a", "b", 3).witness["n"] == 1
    assert rewrite_power_search(AA_TO_BB, "a", "b", 4).witness["n"] == 2
    empty = RewritingSystem(("a", "b"), [])
    out = rewrite_power_search(empty, "a", "b", 5)
    assert out.is_unknown and out.bound == 5


def test_tm_validation():
    with pytest.raises(ValueError, match="final state must have no moves"):
        TuringMachine(("q0", "qf"), (), ("B",),
                      {("q0", "B"): [("qf", "B", "R")],
                       ("qf", "B"): [("qf", "B", "R")]},
                      "q0", "B", "qf")
    with pytest.raises(ValueError, match="must be total"):
        TuringMachine(("q0", "q1", "qf"), (), ("B",),
                      {("q0", "B"): [("q1", "B", "R")]},
                      "q0", "B", "qf")
    with pytest.raises(ValueError, match="collide"):
        TuringMachine(("q0", "B"), (), ("B",), {}, "q0", "B", "B")


def test_tm_run_examples():
    run = tm_run(SINGLE_MOVE)
    assert run.halted and run.cells_used == 1 and run.steps == 1

    run = tm_run(LOOPER, max_steps=1000)
    assert not run.halted and run.steps == 1000

    run = tm_run(LEFT_HALTER)
    assert run.halted and run.left_clamps == 1

    run = tm_run(TWO_CELL_WRITER)
    assert run.halted and run.cells_used == 2 and run.left_clamps == 0


def test_tm_run_requires_determinism():
    nd = TuringMachine(("q0", "qf"), (), ("B",),
                       {("q0", "B"): [("qf", "B", "R"), ("q0", "B", "R")]},
                       "q0", "B", "qf")
    with pytest.raises(ValueError, match="deterministic"):
        tm_run(nd)


def test_tm_to_rewriting_rule_inventory():
    s = tm_to_rewriting(SINGLE_MOVE)
    right_moves = 1
    left_moves = 0
    tape = 1
    assert len(s.rules) == 3 + right_moves + left_moves * tape + 2 * tape
    assert all(len(l) == len(r) for (l, r) in s.rules)
    assert s.rules[0] == (w("aa"), ("$", "q0"))
    assert s.rules[-1] == (("$", "qf"), w("bb"))

    s2 = tm_to_rewriting(TWO_CELL_WRITER)
    assert len(s2.rules) == 3 + 2 + 2 * 2 + 2 * 2


def test_tm_to_rewriting_collision_errors():
    bad = TuringMachine(("q0", "qf"), (), ("a",),
                        {("q0", "a"): [("qf", "a", "R")]},
                        "q0", "a", "qf")
    with pytest.raises(ValueError, match="collide"):
        tm_to_rewriting(bad)
    with pytest.raises(ValueError, match="distinct"):
        tm_to_rewriting(SINGLE_MOVE, a="x", b="x")


def test_encoded_machine_reaches_power():
    s = tm_to_rewriting(SINGLE_MOVE)
    out = rewrite_power_search(s, "a", "b", 5)
    assert out.is_yes and out.witness["n"] == 3
    assert replay_derivation(s, out.witness["derivation"], out.witness["steps"])


def test_encoded_looper_stays_unknown():
    s = tm_to_rewriting(LOOPER)
    assert rewrite_power_search(s, "a", "b", 8).is_unknown


def test_halting_budget_invariant():
    # any halting machine must succeed at some n at most its cell count + 2
    for machine in (SINGLE_MOVE, TWO_CELL_WRITER):
        run = tm_run(machine)
        assert run.halted and run.left_clamps == 0
        s = tm_to_rewriting(machine)
        out = rewrite_power_search(s, "a", "b", run.cells_used + 2)
        assert out.is_yes and out.witness["n"] <= run.cells_used + 2

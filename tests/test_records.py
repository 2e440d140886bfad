"""The package's records: generated field-by-field inits, field-wise
equality, hash and repr, frozen values, identity-compared monoid
elements, and an import that loads neither `dataclasses` nor
`inspect`."""

import os
import re
import subprocess
import sys
from itertools import combinations

import pytest

import ixdcl
from ixdcl.annotate import AnnotatedGrammar
from ixdcl.cfg import Cfg
from ixdcl.grammar import (BinaryRule, CheckDfa, IndexedGrammar, PopRule,
                           PushRule, Record, SymbolTable, TerminalRule)
from ixdcl.monoid import Seg
from ixdcl.nfa import Dfa, Nfa
from ixdcl.oracle import DpResult, OracleBudget, Term
from ixdcl.pipeline import PipelineCaps, PipelineResult
from ixdcl.summaries import SummaryGraph

TABLE = SymbolTable(frozenset({"A"}), frozenset({"a"}), frozenset({"f"}))

# each value record with its fields, in order
VALUES = [
    (TerminalRule, {"lhs": "A", "word": "ab"}),
    (BinaryRule, {"lhs": "A", "left": "B", "right": "C"}),
    (PushRule, {"lhs": "A", "rhs": "B", "sym": "f"}),
    (PopRule, {"lhs": "A", "sym": "f", "rhs": "B"}),
    (CheckDfa, {"name": "D", "states": (0, 1), "init": 0,
                "finals": frozenset({1}), "transitions": ((0, "f", 1),)}),
    (SymbolTable, {"nonterminals": frozenset({"A"}),
                   "terminals": frozenset({"a"}),
                   "stack_symbols": frozenset({"f"})}),
    (Term, {"nt": "A", "stack": ("f", "g")}),
    (OracleBudget, {"max_word_len": 4, "max_stack_height": 5,
                    "max_steps": 6}),
]

# the rule kinds and their numbers of fields
RULE_KINDS = [(cls, len(cls.__slots__))
              for cls in (TerminalRule, BinaryRule, PushRule, PopRule)]

# each mutable record, made twice by the same call, and one of its fields
MUTABLE = [
    (lambda: IndexedGrammar(TABLE, "A", (TerminalRule("A", "a"),)),
     "push_labels"),
    (lambda: AnnotatedGrammar(IndexedGrammar(TABLE, "A", ())), "grammar"),
    (lambda: Cfg([("A", 0)], frozenset("a"), [["a"]]), "rules"),
    (lambda: Nfa(frozenset("a"), 1, [(0, "a", 0)], {0}, {0}), "ideals"),
    (lambda: Dfa(frozenset("a"), 1, {(0, "a"): 0}, 0, {0}), "final"),
    (lambda: DpResult({}, True, frozenset()), "complete"),
    (lambda: PipelineCaps(max_summaries=3), "max_triples"),
    (lambda: PipelineResult(None, None, None, None, None, None, None),
     "stats"),
    (lambda: SummaryGraph([], {}, {}, {}), "inverse"),
]


@pytest.mark.parametrize("cls, fields", VALUES,
                         ids=[cls.__name__ for cls, _ in VALUES])
def test_value_record(cls, fields):
    x = cls(*fields.values())
    assert x == cls(**fields)
    assert repr(x) == cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    assert hash(x) == hash(tuple(fields.values()))
    assert len({x, cls(*fields.values())}) == 1
    for name, value in fields.items():
        assert getattr(x, name) == value
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_rule_repr():
    assert repr(PushRule("A", "B", "f")) == \
        "PushRule(lhs='A', rhs='B', sym='f')"


@pytest.mark.parametrize("a, b, n", [
    (a, b, n) for (a, n), (b, m) in combinations(RULE_KINDS, 2) if n == m])
def test_rule_kinds_with_equal_fields_differ(a, b, n):
    args = ("A", "B", "f")[:n]
    assert a(*args) == a(*args) and b(*args) == b(*args)
    assert a(*args) != b(*args)


def test_record_defaults():
    assert OracleBudget() == OracleBudget(8, 8, 100000)
    assert OracleBudget(max_word_len=4, max_stack_height=4,
                        max_steps=100000).max_steps == 100000
    assert PipelineCaps(max_summaries=7) == \
        PipelineCaps(4096, 4096, 7, 100000)
    a, b = Nfa(frozenset("a")), Nfa(frozenset("a"))
    assert a == b
    assert (a.n_states, a.transitions, a.initial, a.final, a.ideals) == \
        (0, [], set(), set(), None)
    assert a.transitions is not b.transitions
    assert a.initial is not b.initial and a.final is not b.final
    assert IndexedGrammar(TABLE, "A", ()).push_labels == {}


def records():
    """Every record class of the package."""
    out, todo = [], [Record]
    while todo:
        subs = todo.pop().__subclasses__()
        out += subs
        todo += subs
    return [cls for cls in out if cls.__module__.startswith("ixdcl.")]


def test_every_init_takes_the_fields_in_slot_order():
    assert len(records()) == 18
    for cls in records():
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == cls.__slots__


def test_only_records_with_defaults_write_their_init():
    # the others get theirs from Record, and take every field
    assert {cls.__name__ for cls in records()
            if cls.__init__.__defaults__} == {
        "IndexedGrammar", "Nfa", "OracleBudget", "PipelineCaps",
        "PipelineResult"}


@pytest.mark.parametrize("make, message", [
    (lambda: TerminalRule("A"),
     "TerminalRule.__init__() missing 1 required positional argument: "
     "'word'"),
    (lambda: SymbolTable(*"ABCD"),
     "SymbolTable.__init__() takes 4 positional arguments but 5 were given"),
    (lambda: Term("A", stack=(), nt="B"),
     "Term.__init__() got multiple values for argument 'nt'"),
    (lambda: Cfg([], frozenset(), [], rule=[]),
     "Cfg.__init__() got an unexpected keyword argument 'rule'"),
])
def test_arity_error_names_the_record(make, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        make()


def test_keyword_construction():
    assert TerminalRule(word="a", lhs="A") == TerminalRule("A", "a")
    cfg = Cfg(rules=[["a"]], nonterminals=[("A", 0)],
              terminals=frozenset("a"))
    assert (cfg.nonterminals, cfg.terminals, cfg.rules) == \
        ([("A", 0)], frozenset("a"), [["a"]])
    with pytest.raises(AttributeError):
        TerminalRule(lhs="A", word="a").word = "b"


def test_seg_compares_by_identity():
    fields = ("B", frozenset(), frozenset(), "A", frozenset())
    x = Seg(*fields)
    assert x == x and x != Seg(*fields)
    assert hash(x) == object.__hash__(x)
    assert repr(x) == ("Seg(b='B', y=frozenset(), m=frozenset(), a='A', "
                       "x=frozenset())")
    with pytest.raises(AttributeError):
        x.b = "C"


@pytest.mark.parametrize("make, name", MUTABLE,
                         ids=[m().__class__.__name__ for m, _ in MUTABLE])
def test_mutable_record(make, name):
    x, y = make(), make()
    assert x == y and x is not y
    with pytest.raises(TypeError):
        hash(x)
    setattr(y, name, "changed")
    assert x != y


def loaded(imports, names):
    """Which of the modules `names` a fresh interpreter has loaded after
    `import <imports>`.  It runs without the site module (-S), whose
    .pth files may load any module first."""
    code = (f"import sys\nimport {imports}\n"
            f"print(sorted({set(names)!r} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ixdcl.__file__)))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_import_loads_no_dataclasses():
    assert loaded("ixdcl, ixdcl.cli, ixdcl.oracle, ixdcl.families",
                  ["dataclasses", "inspect"]) == "[]"


def test_pipeline_loads_no_oracle():
    # the oracle and its random walks are for checking, not for running
    assert loaded("ixdcl.pipeline", ["ixdcl.oracle", "random"]) == "[]"

"""The command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

import ixdcl
from ixdcl.analysis import Analysis, CapExceeded
from ixdcl.cli import main
from ixdcl.families import (G1_TEXT, G_LOOP_TEXT, SQUARE_TEXT,
                            g_loop_grammar, grammar_gn, grammar_gn_text,
                            square_grammar)
from ixdcl.grammar import grammar_from_text
from ixdcl.nfa import cfg_dcl_nfa, determinize, nfa_inclusion
from ixdcl.pipeline import PipelineCaps, run_pipeline
from cfg_reference import doubling_cfg, pair_cfg
from corpus import EMPTY_TEXT, chain_text
from nfa_reference import astar_bstar_nfa


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, text in [("g1", G1_TEXT), ("loop", G_LOOP_TEXT),
                       ("square", SQUARE_TEXT), ("empty", EMPTY_TEXT)]:
        p = tmp_path / f"{name}.ix"
        p.write_text(text)
        out[name] = str(p)
    return out


@pytest.fixture
def gn_paths(tmp_path):
    """Files holding the lower-bound grammars G_1, G_2 and G_3."""
    out = {}
    for n in (1, 2, 3):
        p = tmp_path / f"gn{n}.ix"   # not the g1 of paths
        p.write_text(grammar_gn_text(n))
        out[n] = str(p)
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    return json.loads(out)


def test_validate_ok(capsys, paths):
    data = run_json(capsys, ["validate", paths["g1"]])
    assert data["valid"] is True
    assert data["diagnostics"] == []
    assert data["nonterminals"] == 3


def test_validate_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.ix"
    bad.write_text("terminals a\nS -> \"a\"\n")
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "error" in err
    # a file that is not UTF-8 cannot be read
    bad.write_bytes(b'start S\nterminals a\nS -> "\xff"\n')
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "cannot read" in err


def test_validate_drops_a_byte_order_mark(capsys, tmp_path):
    bom = tmp_path / "bom.ix"
    bom.write_bytes(b'\xef\xbb\xbfstart S\nterminals a\nS -> "a"\n')
    data = run_json(capsys, ["validate", str(bom)])
    assert data["valid"] is True
    assert data["productions"] == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent.ix"])
    assert code == 2
    assert "error" in err


def test_analyze(capsys, paths):
    data = run_json(capsys, ["analyze", paths["g1"]])
    assert data["useful"] == ["B", "S"]
    assert data["empty"] is False
    assert data["universe_size"] == 2
    data = run_json(capsys, ["analyze", paths["empty"]])
    assert data["empty"] is True


def test_annotate(capsys, paths):
    data = run_json(capsys, ["annotate", paths["g1"]])
    assert data["nonterminals"] == 3
    assert data["rules"] == 3
    assert data["letters"] == 1
    assert data["productive_sample"]["violations"] == 0
    # the annotation of an empty language has no rules, so no walk
    # starts and no sample is flagged
    data = run_json(capsys, ["annotate", paths["empty"]])
    assert data["rules"] == 0
    assert data["productive_sample"]["terms_checked"] == 0
    assert data["productive_sample"]["violations"] == 0


def test_monoid(capsys, paths):
    data = run_json(capsys, ["monoid", paths["square"]])
    assert data["elements"] == 6
    assert data["idempotents"] == 3
    assert data["j_length"] == 3
    assert data["j_length"] <= data["j_length_bound"]


def test_summaries_with_trace(capsys, paths):
    data = run_json(capsys, ["summaries", "--trace", paths["loop"]])
    assert data["nodes"] == 10
    assert data["max_size"] == 9
    steps = {s for e in data["trace"] for s in e["steps"]}
    assert "deepen" in steps and "atom" in steps
    assert any(s.startswith("merge@") for s in steps) or "block" in steps


def test_summaries_trace_does_not_depend_on_the_hash_seed(paths):
    """Annotated letters hold frozensets, so the trace names and sorts
    them by `sort_key`; two fresh interpreters under two hash seeds print
    the same bytes."""
    src = os.path.dirname(os.path.dirname(ixdcl.__file__))
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run_ = subprocess.run(
            [sys.executable, "-m", "ixdcl.cli", "summaries", "--trace",
             paths["square"]], env=env, capture_output=True, check=True)
        outs.add(run_.stdout)
    assert len(outs) == 1


def test_module_runs_the_command_line(capsys, paths):
    # `python -m ixdcl` from a source tree prints what `main` prints
    src = os.path.dirname(os.path.dirname(ixdcl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run_ = subprocess.run([sys.executable, "-m", "ixdcl", "stats",
                           paths["g1"]], env=env, capture_output=True,
                          check=True)
    assert json.loads(run_.stdout) == run_json(capsys, ["stats", paths["g1"]])


def test_to_cfg(capsys, paths, gn_paths):
    data = run_json(capsys, ["to-cfg", paths["square"]])
    assert data["triples"] == 1277
    assert data["trimmed_triples"] == 1277
    assert run_json(capsys, ["to-cfg", gn_paths[3]])["triples"] == 3583
    # the one cover that the trim changes: an empty language's start
    # triple has no rule
    data = run_json(capsys, ["to-cfg", paths["empty"]])
    assert (data["triples"], data["rules"]) == (1, 0)
    assert (data["trimmed_triples"], data["trimmed_rules"]) == (0, 0)


def test_dcl_nfa_json_and_dot(capsys, paths):
    data = run_json(capsys, ["dcl-nfa", paths["g1"]])
    assert set(data) >= {"states", "alphabet", "initial", "final",
                         "transitions"}
    assert data["alphabet"] == ["a", "b"]
    code, out, _ = run(capsys, ["--format", "dot", "dcl-nfa", paths["g1"]])
    assert code == 0
    assert out.startswith("digraph")


def test_dot_labels_escape_quote_and_backslash(capsys, tmp_path):
    p = tmp_path / "quotes.ix"
    p.write_text('start S\nterminals " \\ a\nS -> " \\ a\n')
    code, out, _ = run(capsys, ["--format", "dot", "dcl-nfa", str(p)])
    assert code == 0
    labels = re.findall(r"\[label=(.*)\];", out)
    assert set(labels) == {'"\\""', '"\\\\"', '"a"', '"ε"'}


def test_dcl_nfa_deterministic(capsys, paths):
    a = run_json(capsys, ["dcl-nfa", paths["square"]])
    b = run_json(capsys, ["dcl-nfa", paths["square"]])
    assert a == b


def test_dcl_nfa_empty_check_short_circuit(capsys, paths):
    # the empty language exports one initial state and no final state
    data = run_json(capsys, ["dcl-nfa", paths["empty"]])
    assert data["states"] == [0]
    assert data["final"] == []


def test_compare(capsys, paths):
    data = run_json(capsys, ["compare", "--mode", "subset",
                             paths["g1"], paths["square"]])
    assert data["holds"] is True and data["counterexample"] is None
    data = run_json(capsys, ["compare", "--mode", "subset",
                             paths["square"], paths["g1"]])
    assert data["holds"] is False and data["counterexample"] == "aa"
    data = run_json(capsys, ["compare", "--mode", "equal",
                             paths["g1"], paths["g1"]])
    assert data["holds"] is True


def test_member(capsys, paths):
    assert run_json(capsys, ["member", paths["square"], "aabb"])["member"]
    assert not run_json(capsys, ["member", paths["square"], "ba"])["member"]
    assert run_json(capsys, ["member", paths["square"], '""'])["member"]


def test_member_of_g2_closure(capsys, gn_paths):
    data = run_json(capsys, ["member", gn_paths[2], "a" * 65536])
    assert data["member"] is True


def test_oracle(capsys, paths):
    data = run_json(capsys, ["oracle", "--len", "8", "--height", "4",
                             paths["g1"]])
    assert data == {"words": ["ab"], "complete": True}


def test_gen_round_trips_through_validate(capsys, tmp_path):
    for family in ("g1", "loop", "square", "gn"):
        code, out, _ = run(capsys, ["gen", family, "1"])
        assert code == 0
        p = tmp_path / f"{family}.ix"
        p.write_text(out)
        data = run_json(capsys, ["validate", str(p)])
        assert data["valid"] is True


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_gn_refuses_n_below_1(capsys, n):
    code, out, err = run(capsys, ["gen", "gn", n])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_stats(capsys, paths, gn_paths):
    data = run_json(capsys, ["stats", gn_paths[1]])
    # the solver's keys by kind; a focus matrix has no key of its own
    assert (data["cl_keys"], data["efoc_keys"]) == (12, 5)
    data = run_json(capsys, ["stats", paths["g1"]])
    assert data["grammar_size"] == 8
    assert data["summary_nodes"] == 2
    assert data["nfa_states"] > 0
    assert data["longest_word"] == 2
    assert run_json(capsys, ["stats", paths["square"]])["longest_word"] \
        == "infinite"
    assert run_json(capsys, ["stats", paths["empty"]])["longest_word"] \
        is None


def test_stats_prints_a_count_of_any_size(capsys, tmp_path):
    # 2**14300 has 4305 digits, past the limit of 4300 digits that Python
    # (from 3.10.7) puts on turning an int into a string
    path = tmp_path / "chain.ix"
    path.write_text(chain_text(14300, kids_first=True))
    get = getattr(sys, "get_int_max_str_digits", lambda: 0)
    lift = getattr(sys, "set_int_max_str_digits", lambda n: None)
    old = get()
    try:
        lift(4300)   # the default, which the command must restore
        limit = get()
        code, out, _ = run(capsys, ["stats", str(path)])
        assert code == 0 and get() == limit
        lift(0)
        data = json.loads(out)
    finally:
        lift(old)
    assert data["longest_word"] == 2 ** 14300


def test_cap_exceeded_exit_code(capsys, paths, gn_paths):
    # G_3's closure export would unfold a^(2^256) into states; the
    # search for G_2's counterexample against G_1 visits 18 product states
    for argv in (["--max-summaries", "3", "summaries", paths["loop"]],
                 ["--max-monoid", "2", "monoid", paths["square"]],
                 ["--max-dfa-states", "1", "compare",
                  paths["g1"], paths["loop"]],
                 ["--max-triples", "10", "to-cfg", paths["square"]],
                 ["--max-dfa-states", "17", "compare", "--mode", "subset",
                  gn_paths[2], gn_paths[1]],
                 ["dcl-nfa", gn_paths[3]],
                 ["--format", "dot", "dcl-nfa", gn_paths[3]]):
        code, _, err = run(capsys, argv)
        assert code == 3, argv
        assert "cap" in err


def test_comparison_cap_counts_the_start_pair(capsys, paths, tmp_path):
    # the empty closure against {ε} differs at the start pair already
    p = tmp_path / "eps.ix"
    p.write_text('start S\nterminals a\nS -> ""\n')
    argv = ["compare", paths["empty"], str(p)]
    code, _, err = run(capsys, ["--max-dfa-states", "0"] + argv)
    assert code == 3
    assert "comparison cap exceeded: 1 product states, limit 0 " \
        "(--max-dfa-states)" in err
    data = run_json(capsys, ["--max-dfa-states", "1"] + argv)
    assert (data["holds"], data["counterexample"]) == (False, "")


@pytest.mark.parametrize("argv", [
    ["--max-universe", "-1", "stats", "square"],
    ["--max-monoid", "-1", "stats", "square"],
    ["--max-summaries", "-1", "stats", "square"],
    ["--max-triples", "-1", "stats", "square"],
    ["--max-dfa-states", "-1", "compare", "square", "square"],
    ["oracle", "square", "--len", "-3"],
    ["oracle", "square", "--height", "-1"],
])
def test_negative_sizes_and_caps_are_refused(capsys, paths, argv):
    argv = [paths.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error: argument" in err and "must not be negative" in err


def test_universe_cap_message(capsys, paths):
    code, _, err = run(capsys, ["--max-universe", "1", "analyze",
                                paths["square"]])
    assert code == 3
    assert "action table cap exceeded: 2 cl keys, limit 1 " \
        "(--max-universe)" in err


@pytest.mark.parametrize("command", ["analyze", "annotate", "monoid",
                                     "summaries", "to-cfg", "stats"])
def test_universe_cap_agrees_across_commands(capsys, paths, gn_paths,
                                             command):
    # every command runs the analysis with its universe solved first, so
    # each stops at the cl key count of the whole pipeline
    for g, path in ((square_grammar(), paths["square"]),
                    (grammar_gn(1), gn_paths[1])):
        keys = run_pipeline(g).stats["cl_keys"]
        code, _, err = run(capsys, ["--max-universe", str(keys - 1),
                                    command, path])
        assert code == 3
        assert f"action table cap exceeded: {keys} cl keys, limit " \
            f"{keys - 1} (--max-universe)" in err
        run_json(capsys, ["--max-universe", str(keys), command, path])


def test_stage_command_builds_no_later_stage(capsys, paths):
    run_json(capsys, ["--max-monoid", "2", "analyze", paths["square"]])


@pytest.mark.parametrize("argv, message", [
    (["--max-monoid", "2", "monoid"],
     "stack monoid cap exceeded: 3 elements, limit 2 (--max-monoid)"),
    (["--max-summaries", "3", "summaries"],
     "summary graph cap exceeded: 4 summaries, limit 3 (--max-summaries)"),
    (["--max-triples", "10", "to-cfg"],
     "cfg triple cap exceeded: 11 triples, limit 10 (--max-triples)"),
])
def test_cap_message_names_count_limit_and_flag(capsys, paths, argv,
                                                message):
    for cmd in (argv, argv[:2] + ["stats"]):
        code, _, err = run(capsys, cmd + [paths["square"]])
        assert code == 3, cmd
        assert f"cap exceeded: {message}" in err, (cmd, err)


# the universe is Useful = {S} and act(f, {S}) = cl({A, S}), two sets,
# but the analysis makes three cl keys, cl({S}) the third: the key cap
# fires at a limit the universe fits
TWO_SETS_TEXT = """\
start S
terminals a
stack f
S -> "a"
S -> S + f
S -> A
A - f -> S
"""


def closure_with_ideal_cap(monkeypatch, cap):
    # (c + d)(a + e) needs four ideals
    monkeypatch.setattr("ixdcl.nfa.CLOSURE_IDEAL_CAP", cap)
    cfg_dcl_nfa(pair_cfg())


@pytest.mark.parametrize("build, message", [
    (lambda mp: Analysis(square_grammar(), universe_cap=1).universe(),
     "action table cap exceeded: 2 cl keys, limit 1 (--max-universe)"),
    (lambda mp: Analysis(grammar_from_text(TWO_SETS_TEXT),
                         universe_cap=2).universe(),
     "action table cap exceeded: 3 cl keys, limit 2 (--max-universe)"),
    (lambda mp: run_pipeline(square_grammar(), PipelineCaps(max_monoid=2)),
     "stack monoid cap exceeded: 3 elements, limit 2 (--max-monoid)"),
    (lambda mp: run_pipeline(g_loop_grammar(),
                             PipelineCaps(max_summaries=3)),
     "summary graph cap exceeded: 4 summaries, limit 3 (--max-summaries)"),
    (lambda mp: run_pipeline(square_grammar(),
                             PipelineCaps(max_triples=10)),
     "cfg triple cap exceeded: 11 triples, limit 10 (--max-triples)"),
    (lambda mp: closure_with_ideal_cap(mp, 3),
     "closure expression cap exceeded: 4 ideals, limit 3 "
     "(CLOSURE_IDEAL_CAP)"),
    (lambda mp: len(cfg_dcl_nfa(doubling_cfg(20)).transitions),
     "closure NFA state cap exceeded: 1048578 states, limit 1000000 "
     "(CLOSURE_STATE_CAP)"),
    (lambda mp: nfa_inclusion(cfg_dcl_nfa(doubling_cfg(5)),
                              cfg_dcl_nfa(doubling_cfg(4)), cap=10),
     "comparison cap exceeded: 11 product states, limit 10 "
     "(--max-dfa-states)"),
    (lambda mp: determinize(astar_bstar_nfa(), cap=2),
     "determinization cap exceeded: 3 states in subsets, limit 2 "
     "(--max-dfa-states)"),
])
def test_every_cap_message_has_one_form(monkeypatch, build, message):
    # <cap> cap exceeded: <count> <unit>, limit <limit> (<knob>)
    with pytest.raises(CapExceeded) as exc:
        build(monkeypatch)
    assert str(exc.value) == message
    form = re.fullmatch(r"[A-Za-z ]+ cap exceeded: (\d+) [a-z ]+, "
                        r"limit (\d+) \((--[a-z-]+|[A-Z_]+)\)", message)
    assert form and int(form[1]) > int(form[2])


def test_compare_on_ideals(capsys, gn_paths):
    # both closures are the one ideal a^65536: no determinization
    data = run_json(capsys, ["compare", gn_paths[2], gn_paths[2]])
    assert data["holds"] is True and data["counterexample"] is None
    data = run_json(capsys, ["compare", "--mode", "subset",
                             gn_paths[1], gn_paths[2]])
    assert data["holds"] is True
    # a failing inclusion steps through the ideals for its witness
    data = run_json(capsys, ["compare", "--mode", "subset",
                             gn_paths[2], gn_paths[1]])
    assert data["holds"] is False and data["counterexample"] == "a" * 17


def test_g3_stats_and_member(capsys, gn_paths):
    # G_3's closure a^(2^256) is answered from its one ideal
    data = run_json(capsys, ["stats", gn_paths[3]])
    assert data["longest_word"] == 2 ** 256
    assert data["cl_keys"] == 102
    assert data["nfa_states"] == 2 + 2 ** 256
    assert run_json(capsys, ["member", gn_paths[3], "a" * 100])["member"]
    assert not run_json(capsys, ["member", gn_paths[3], "b"])["member"]

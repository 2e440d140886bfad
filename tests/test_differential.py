"""The pipeline against the closure oracle on generated grammars.

For each drawn grammar the closure NFA answers membership for all 63
words over {a, b} of length at most 5, and the oracle finds the words
of that length in the downward closure in one fixpoint.  A word the
oracle finds must be accepted; a word it does not find must be rejected
when the oracle is complete, that is, when no stack push it pruned at
its height bound was left uncertified by the analysis's emptiness test.
A draw whose pipeline exits at a cap is skipped.  Each cover the gate
builds is also checked to be trim as built.  Two hand-written
witnesses pin down parts of the construction that no draw needs.

`pytest --hypothesis-show-statistics` reports how many draws exited at
a cap, how many had a complete oracle and how many closures hold a word
with a letter.
"""

from itertools import islice

import pytest
from hypothesis import event, given, settings

from ixdcl.analysis import CapExceeded
from ixdcl.grammar import grammar_from_text
from ixdcl.nfa import _word_ideal, nfa_member
from ixdcl.oracle import OracleBudget, _DclDp, dcl_member_oracle
from ixdcl.pipeline import PipelineCaps, run_pipeline, stages
from cfg_reference import assert_cover_is_trim
from corpus import PARITY_TEXT, SAME_LEVEL_TEXT, grammar
from generated_grammars import grammar_texts
from nfa_reference import words_upto

WORDS = words_upto("ab", 5)
BUDGET = OracleBudget(max_word_len=5, max_stack_height=6)
# a summary graph of a finishing draw has at most about 100 nodes
CAPS = PipelineCaps(max_summaries=256)


class BoundedDclDp(_DclDp):
    """`_DclDp` over a set of words rather than the subwords of one: a
    key's value is the set of those words that embed into a word the key
    derives.  The set must be downward closed, as all words up to a
    length are, so that `combine`'s filter keeps every subword the value
    needs."""

    def __init__(self, g, budget, emptiness, words):
        super().__init__(g, budget, emptiness, "")
        self.domain = frozenset(words)


def bounded_closure(g, emptiness, words):
    """The words of `words` in the downward closure of L(g), and whether
    that answer is complete."""
    root = (g.start, ())
    dp = BoundedDclDp(g, BUDGET, emptiness, words)
    bad = dp.incomplete(root)
    return dp._val[root], root not in bad


@pytest.mark.parametrize("name", ["g1", "loop", "square"])
def test_bounded_closure_matches_the_word_oracle(fixtures, name):
    st_ = fixtures[name]
    g, empty = st_.grammar, st_.analysis.term_empty
    words = words_upto(g.symbols.terminals, 5)
    found, complete = bounded_closure(g, empty, words)
    for w in words:
        assert dcl_member_oracle(g, w, BUDGET, empty) == \
            (w in found, complete), w


@settings(max_examples=300, deadline=None)
@given(grammar_texts())
def test_closure_matches_oracle_on_generated_grammars(text):
    g = grammar_from_text(text)
    try:
        result = run_pipeline(g, CAPS)
    except CapExceeded:
        event("cap exit")
        return
    assert_cover_is_trim(result.cfg)
    found, complete = bounded_closure(g, result.analysis.term_empty, WORDS)
    event("oracle complete" if complete else "oracle incomplete")
    event("closure has a letter" if found - {""} else "closure within {ε}")
    for w in WORDS:
        member = nfa_member(result.nfa, w)
        if w in found:
            assert member, w
        elif complete:
            assert not member, w


@pytest.mark.parametrize("text, words, rejected", [
    (PARITY_TEXT, ("ab", "ba"), ("aa", "bb")),
    (SAME_LEVEL_TEXT, ("a",), ()),
], ids=["parity", "same_level"])
def test_witness_closure(text, words, rejected):
    # the closure is exactly the subwords of the golden words, and the
    # oracle finds the same words up to length 5
    g = grammar_from_text(text)
    result = run_pipeline(g)
    assert result.nfa.ideals == frozenset(map(_word_ideal, words))
    for w in rejected:
        assert not nfa_member(result.nfa, w), w
    found, _ = bounded_closure(g, result.analysis.term_empty, WORDS)
    assert found == {w for w in WORDS if nfa_member(result.nfa, w)}


def test_covers_are_trim(fixtures):
    covers = [st_.cfg for st_ in fixtures.values()]
    covers += [list(islice(stages(grammar(name)), 6))[-1] for name in (
        "G_1", "G_2", "G_3", "parity", "same_level")]
    for cfg in covers:
        assert_cover_is_trim(cfg)

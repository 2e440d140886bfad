"""Closed-loop benchmark of the downward-closure pipeline.

One caller, one process, one thread.  A run repeats rounds of its
workload for about `seconds` (at least two rounds).  A round sends
every grammar text of the workload through the public API,
`grammar_from_text` then `run_pipeline`, sends it again through the
stage functions up to the trimmed context-free cover, and asks the
workload's fixed batch of `ixdcl.nfa` queries of the closures.  Every
verdict is checked, outside the timed calls, against an answer that
does not come from the pipeline: hand-known closures for `square` and
`counter`, `dcl_member_oracle` for `random`.

Times are scaled to a fixed host speed.  The machines this runs on are
shared, and their speed drifts by a quarter and more over minutes,
which no median within a run can remove.  So at the start of each
round and then about once a second, between operations, the run times
a fixed piece of pure-Python work that does not touch the program
(`_reference_work`), and every time in the round is multiplied by
REFERENCE_S over the median of the round's reference times: the
figures read as seconds on a host where the reference work takes
REFERENCE_S.  Each round starts from a full garbage collection, so the
collector's passes fall at the same places in every round.

End-to-end metrics are medians over the rounds of an untraced run.  A
traced run (`trace=True`) alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (see `spans.py`): the
median over rounds of each layer's total in a round.  Every round of a
workload sends the same inputs, so the counts repeat exactly.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import grammars
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
SETUP_REPEATS = 15
REFERENCE_S = 0.04
# Per-operation time limit.  The slowest operation any workload makes
# today takes about 8 s (a summary-cap exit in the random population).
TIME_LIMIT = 30.0

END_TO_END = {
    "setup_s": "s", "closure_s": "s", "cover_s": "s",
    "closure_p50_ms": "ms", "closure_p90_ms": "ms", "query_s": "s",
    "member_letters_per_s": "1/s", "decided_frac": "ratio",
    "clean_frac": "ratio", "peak_rss_mb": "MB",
    "closure_states": "count", "closure_transitions": "count",
}
PER_LAYER = {
    "grammar.parse_s": "s", "grammar.productions": "count",
    "analysis.universe_s": "s", "analysis.universe_size": "count",
    "annotate.s": "s", "annotate.rules": "count",
    "monoid.s": "s", "monoid.elements": "count", "monoid.j_length": "count",
    "summaries.s": "s", "summaries.nodes": "count",
    "summaries.pushes": "count", "summaries.node_yield": "ratio",
    "cfg.build_s": "s", "cfg.triples": "count", "cfg.trim_s": "s",
    "cfg.trim_calls": "count", "cfg.trim_keep": "ratio",
    "nfa.closure_self_s": "s", "nfa.dcl_close_s": "s",
    "nfa.states": "count", "nfa.transitions": "count",
    "nfa.eps_transitions": "count",
    "nfa.member_s": "s", "nfa.member_letters": "count",
    "nfa.longest_s": "s", "nfa.longest_errors": "count",
    "nfa.inclusion_s": "s", "nfa.determinize_s": "s",
    "nfa.dfa_states": "count", "pipeline.self_s": "s",
    "error_frac": "ratio", "trace.overhead_s": "s", "host.speed": "ratio",
}


def _reference_work():
    """Fixed allocation-heavy work, like the pipeline's but independent
    of it; its time tracks the speed the host gives this process."""
    acc = {}
    for i in range(40000):
        acc.setdefault((i % 97, i % 89), set()).add(
            frozenset((i % 7, i % 11, i % 13)))
    return len(acc)


class HostSpeed:
    """Times `_reference_work` now and then; `factor` turns the
    measured seconds since its last call into seconds at the reference
    speed."""

    INTERVAL = 1.0

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        """The fastest of three back-to-back runs, which leaves out the
        page faults and interrupts that hit a single run."""
        gc.disable()   # the program's heap must not slow the reference
        try:
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                _reference_work()
                runs.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.samples.append(min(runs))
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.INTERVAL:
            self.sample()

    def factor(self):
        """REFERENCE_S over the median sample since the last call."""
        out = REFERENCE_S / statistics.median(self.samples)
        self.samples = []
        return out


class TimeLimit(Exception):
    """An operation overran the per-operation time limit."""


def _alarm(signum, frame):
    raise TimeLimit()


class Ix:
    """The program's modules, imported from `src/` of this checkout."""

    MODULES = ("ixdcl", "ixdcl.pipeline", "ixdcl.nfa", "ixdcl.oracle",
               "ixdcl.families", "ixdcl.analysis", "ixdcl.grammar")

    def __init__(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m.split(".")[0] == "ixdcl"]:
            del sys.modules[name]
        (self.ixdcl, self.pipeline, self.nfa, self.oracle, self.families,
         analysis, grammar) = map(importlib.import_module, self.MODULES)
        self.refusals = (grammar.GrammarError, analysis.CapExceeded)
        self.tracer = None
        self._undo = None

    def trace(self, on):
        if on:
            self.tracer = self.tracer or spans.Tracer()
            self._undo = spans.install(self.tracer, self.pipeline, self.nfa)
        elif self._undo:
            self._undo()
            self._undo = None

    def _call(self, name, fn, *args, count=None):
        if self._undo is None:
            return fn(*args)
        return self.tracer.wrap(name, fn, count)(*args)

    # -- the calls a round makes, each one layer boundary ---------------

    def parse(self, text):
        return self._call(
            "grammar.parse", self.ixdcl.grammar_from_text, text,
            count=lambda c, a, g: c.update(
                {"grammar.productions": len(g.productions)}))

    def closure(self, text):
        """Text to closure NFA through the public API."""
        g = self.parse(text)
        return self._call("pipeline", self.pipeline.run_pipeline, g,
                          count=_count_nfa).nfa

    def cover(self, text):
        """Text to trimmed cover, by the stage functions in
        `run_pipeline`'s order (the closure is not built)."""
        return self._call("cover", self._cover, self.parse(text))

    def _cover(self, g):
        P = self.pipeline
        caps = P.PipelineCaps()
        analysis = P.Analysis(g, universe_cap=caps.max_universe)
        analysis.universe()
        ag = P.build_annotated(g, analysis)
        monoid = P.StackMonoid(analysis, ag.letters, cap=caps.max_monoid)
        factory = P.SummaryFactory(monoid)
        graph = P.build_summary_graph(factory, ag.letters,
                                      cap=caps.max_summaries)
        cfg = P.build_cfg(ag, graph)
        if len(cfg.nonterminals) > caps.max_triples:
            raise P.CapExceeded("cfg triple cap exceeded")
        return P.trim_cfg(cfg)

    def member(self, nfa, word):
        return self._call(
            "nfa.member", self.nfa.nfa_member, nfa, word,
            count=lambda c, a, out: c.update(
                {"nfa.member_letters": len(word)}))

    def inclusion(self, n1, n2):
        return self._call("nfa.inclusion", self.nfa.nfa_inclusion, n1, n2)

    def equivalence(self, n1, n2):
        return self._call("nfa.inclusion", self.nfa.nfa_equivalence, n1, n2)

    def longest(self, nfa):
        if self._undo is None:
            return self.nfa.longest_word_or_infinite(nfa)
        try:
            return self._call("nfa.longest", self.nfa.longest_word_or_infinite,
                              nfa)
        except Exception:
            self.tracer.counts["nfa.longest_errors"] += 1
            raise


def _count_nfa(c, args, result):
    nfa = result.nfa
    eps = sum(1 for (_, a, _) in nfa.transitions if a is None)
    c.update({"nfa.states": nfa.n_states,
              "nfa.transitions": len(nfa.transitions),
              "nfa.eps_transitions": eps,
              "pipeline.calls": 1})


class Ops:
    """Runs operations under the time limit and keeps the accounts.

    `GrammarError` and `CapExceeded` are documented outcomes: they count
    against `decided_frac`.  Any other exception, or an overrun of the
    time limit, is an error: it is counted, reported on stderr once per
    kind, and the run goes on.
    """

    def __init__(self, ix, speed, limit=TIME_LIMIT):
        self.ix = ix
        self.speed = speed
        self.limit = limit
        self.attempted = self.errors = 0
        self.inputs = self.decided = 0
        self.error_kinds = Counter()
        self.checked = 0
        self.wrong = []

    def call(self, what, fn, *args):
        """Returns (ok, value, seconds)."""
        self.speed.maybe_sample()
        self.attempted += 1
        ok, value = False, None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                value = fn(*args)
                ok = True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except self.ix.refusals:
            pass
        except TimeLimit:
            ok = False
            self._error(what, f"time limit of {self.limit} s")
        except Exception as exc:
            self._error(what, f"{type(exc).__name__}: {str(exc)[:120]}")
        return ok, value, time.perf_counter() - start

    def grammar_input(self, what, fn, text):
        self.inputs += 1
        ok, value, seconds = self.call(what, fn, text)
        self.decided += ok
        return ok, value, seconds

    def _error(self, what, kind):
        self.errors += 1
        if not self.error_kinds[(what, kind)]:
            print(f"error in {what}: {kind}", file=sys.stderr)
        self.error_kinds[(what, kind)] += 1

    def check(self, cond, message):
        self.checked += 1
        if not cond:
            if len(self.wrong) < 20:
                print(f"wrong: {message}", file=sys.stderr)
            self.wrong.append(message)


class Round:
    """The end-to-end figures of one round, in measured seconds until
    `scale` multiplies them by the round's host-speed factor."""

    def __init__(self):
        self.closure_s = self.cover_s = self.query_s = 0.0
        self.member_s = 0.0
        self.member_letters = 0
        self.closure_samples = []
        self.states = self.transitions = 0

    def add_closure(self, ok, nfa, seconds):
        self.closure_s += seconds
        self.closure_samples.append(seconds)
        if ok:
            self.states += nfa.n_states
            self.transitions += len(nfa.transitions)

    def add_query(self, seconds, letters=None):
        self.query_s += seconds
        if letters is not None:
            self.member_s += seconds
            self.member_letters += letters

    def scale(self, factor):
        self.factor = factor
        self.raw_closure_s = self.closure_s
        self.closure_s *= factor
        self.cover_s *= factor
        self.query_s *= factor
        self.member_s *= factor
        self.closure_samples = [t * factor for t in self.closure_samples]


# ---------------------------------------------------------------------------
# workloads


def _words(alphabet, max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out += [w + c for w in out if len(w) == n - 1 for c in alphabet]
    return out


def _subword_nfa(Nfa, word):
    """Hand-built NFA for the scattered subwords of `word`."""
    nfa = Nfa(frozenset(word), len(word) + 1)
    for i, c in enumerate(word):
        nfa.add_edge(i, c, i + 1)
        nfa.add_edge(i, None, i + 1)
    nfa.initial, nfa.final = {0}, {len(word)}
    return nfa


class Square:
    """The a^n b^(n^2) grammar; its closure is a*b*."""

    name = "square"

    def texts(self, ix, seed):
        self.text = ix.families.SQUARE_TEXT
        self.g1_text = ix.families.G1_TEXT

    def prepare(self, ix, ops):
        astar_bstar = ix.nfa.Nfa(frozenset("ab"), 2)
        astar_bstar.add_edge(0, "a", 0)
        astar_bstar.add_edge(0, None, 1)
        astar_bstar.add_edge(1, "b", 1)
        astar_bstar.initial, astar_bstar.final = {0}, {1}
        self.astar_bstar = astar_bstar
        ok, self.g1, _ = ops.call("closure of g1", ix.closure, self.g1_text)
        ops.check(ok, "g1 has no closure")
        for w in _words("ab", 3) if ok else ():
            ops.check(ix.nfa.nfa_member(self.g1, w) == (w in ("", "a", "b",
                                                              "ab")),
                      f"g1 closure membership of {w!r}")
        self.words = _words("ab", 8)

    def round(self, ix, ops, rnd):
        ok, nfa, t = ops.grammar_input("closure of square", ix.closure,
                                       self.text)
        rnd.add_closure(ok, nfa, t)
        cok, cover, t = ops.grammar_input("cover of square", ix.cover,
                                          self.text)
        rnd.cover_s += t
        if cok:
            ops.check(bool(cover.nonterminals), "square cover is empty")
        if not ok:
            return
        for w in self.words:
            qok, verdict, t = ops.call("member", ix.member, nfa, w)
            rnd.add_query(t, len(w))
            if qok:
                want = "ba" not in w
                ops.check(verdict == want, f"square member {w!r}: {verdict}")
        qok, res, t = ops.call("equivalence", ix.equivalence, nfa,
                               self.astar_bstar)
        rnd.add_query(t)
        if qok:
            ops.check(res == (True, None), f"square == a*b*: {res}")
        if self.g1 is not None:
            qok, res, t = ops.call("inclusion", ix.inclusion, nfa, self.g1)
            rnd.add_query(t)
            if qok:
                ops.check(res == (False, "aa"), f"square <= g1: {res}")


class CounterFamily:
    """The lower-bound family G_1, G_2: closures, covers and queries.

    G_3 is left out: its cover alone takes 12-15 s, too long to sample
    often enough in a run for a steady median on a shared machine."""

    name = "counter"
    # (grammar, word length, expected verdict); G_2's bound is 65536, and
    # at its current cost per letter only words below it are affordable.
    MEMBERS = ((1, 16, True), (1, 17, False), (2, 4, True))
    LONGEST = {1: 16, 2: 65536}

    def texts(self, ix, seed):
        self.text = {n: ix.families.grammar_gn_text(n) for n in (1, 2)}

    def prepare(self, ix, ops):
        self.sub16 = _subword_nfa(ix.nfa.Nfa, "a" * 16)

    def round(self, ix, ops, rnd):
        nfas = {}
        for n, text in self.text.items():
            ok, nfa, t = ops.grammar_input(f"closure of G_{n}", ix.closure,
                                           text)
            rnd.add_closure(ok, nfa, t)
            if ok:
                nfas[n] = nfa
            ok, cover, t = ops.grammar_input(f"cover of G_{n}", ix.cover, text)
            rnd.cover_s += t
            if ok:
                ops.check(bool(cover.nonterminals), f"G_{n} cover is empty")
        for n, k, want in self.MEMBERS:
            if n in nfas:
                ok, verdict, t = ops.call(f"member G_{n}", ix.member, nfas[n],
                                          "a" * k)
                rnd.add_query(t, k)
                if ok:
                    ops.check(verdict == want,
                              f"G_{n} member a^{k}: {verdict}")
        for n, want in self.LONGEST.items():
            if n in nfas:
                ok, res, t = ops.call(f"longest G_{n}", ix.longest, nfas[n])
                rnd.add_query(t)
                if ok:
                    ops.check(res == want, f"G_{n} longest word: {res}")
        if 1 in nfas:
            ok, res, t = ops.call("equivalence G_1", ix.equivalence, nfas[1],
                                  self.sub16)
            rnd.add_query(t)
            if ok:
                ops.check(res == (True, None), f"G_1 == dcl(a^16): {res}")


class Random:
    """A fixed population of generated grammars, renamed by the seed."""

    name = "random"
    POPULATION_SEED = 0
    WORDS = 4           # membership words per decided closure
    ORACLE = dict(max_word_len=4, max_stack_height=4, max_steps=100000)

    def __init__(self, size=100):
        self.size = size
        self.answers = {}   # (grammar index, word) -> oracle answer

    def texts(self, ix, seed):
        draws_rng = random.Random(self.POPULATION_SEED)
        draws = [grammars.draw_grammar(draws_rng) for _ in range(self.size)]
        rng = random.Random(seed)
        self.texts_ = [grammars.render(d, rng) for d in draws]
        self.words = [[("".join(rng.choice("ab")
                                for _ in range(rng.randint(1, 4))))
                       for _ in range(self.WORDS)] for _ in draws]

    def prepare(self, ix, ops):
        self.budget = ix.oracle.OracleBudget(**self.ORACLE)
        self.parsed = [ix.ixdcl.grammar_from_text(t) for t in self.texts_]

    def oracle(self, ix, i, word):
        """(member, complete) from the brute-force oracle, or None when
        the oracle itself overruns the time limit."""
        key = (i, word)
        if key not in self.answers:
            self.answers[key] = _reference(ix.oracle.dcl_member_oracle,
                                         self.parsed[i], word, self.budget)
        return self.answers[key]

    def check_verdict(self, ix, ops, i, word, verdict, what):
        ans = self.oracle(ix, i, word)
        if ans is None:
            return
        member, complete = ans
        if member:
            ops.check(verdict, f"{what}: oracle derives {word!r}")
        elif complete:
            ops.check(not verdict, f"{what}: oracle excludes {word!r}")

    def round(self, ix, ops, rnd):
        prev = None
        for i, text in enumerate(self.texts_):
            ok, nfa, t = ops.grammar_input(f"closure of random {i}",
                                           ix.closure, text)
            rnd.add_closure(ok, nfa, t)
            _, _, t = ops.grammar_input(f"cover of random {i}", ix.cover,
                                        text)
            rnd.cover_s += t
            if not ok:
                continue
            for w in self.words[i]:
                qok, verdict, t = ops.call("member", ix.member, nfa, w)
                rnd.add_query(t, len(w))
                if qok:
                    self.check_verdict(ix, ops, i, w, verdict,
                                       f"random {i} member")
            if prev is not None:
                j, pnfa = prev
                qok, res, t = ops.call("inclusion", ix.inclusion, pnfa, nfa)
                rnd.add_query(t)
                if qok and not res[0]:
                    self.check_verdict(ix, ops, j, res[1], True,
                                       f"random {j} <= {i} counterexample")
                    self.check_verdict(ix, ops, i, res[1], False,
                                       f"random {j} <= {i} counterexample")
            prev = (i, nfa)


WORKLOADS = {w.name: w for w in (Square, CounterFamily, Random)}


def _reference(fn, *args, limit=TIME_LIMIT):
    """A reference computation under its own time limit; None when it
    overruns."""
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        return None


# ---------------------------------------------------------------------------
# the run


def _setup(workload, seed, speed):
    """Import the program and generate the workload's texts; the median
    of several repeats is the set-up time."""
    times = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ix = Ix()
        workload.texts(ix, seed)
        times.append(time.perf_counter() - start)
    speed.sample()
    return ix, statistics.median(times) * speed.factor()


def _percentile(samples, q):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _layer_metrics(ix, factor):
    total, own = ix.tracer.layer_totals()
    for t in (total, own):
        for k in t:
            t[k] *= factor
    c = ix.tracer.counts
    calls = max(c["pipeline.calls"], 1)
    return {
        "grammar.parse_s": total["grammar.parse"],
        "grammar.productions": c["grammar.productions"],
        "analysis.universe_s": total["analysis.universe"],
        "analysis.universe_size": c["analysis.universe_size"],
        "annotate.s": total["annotate"],
        "annotate.rules": c["annotate.rules"],
        "monoid.s": total["monoid"],
        "monoid.elements": c["monoid.elements"],
        "monoid.j_length": c["monoid.j_length"],
        "summaries.s": total["summaries"],
        "summaries.nodes": c["summaries.nodes"],
        "summaries.pushes": c["summaries.pushes"],
        "summaries.node_yield": c["summaries.nodes"] /
        max(c["summaries.pushes"], 1),
        "cfg.build_s": total["cfg.build"],
        "cfg.triples": c["cfg.triples"],
        "cfg.trim_s": total["cfg.trim"],
        "cfg.trim_calls": c["cfg.trim_calls_in_pipeline"] / calls,
        "cfg.trim_keep": c["cfg.trim_out"] / max(c["cfg.trim_in"], 1),
        "nfa.closure_self_s": own["nfa.closure"],
        "nfa.dcl_close_s": total["nfa.dcl_close"],
        "nfa.states": c["nfa.states"],
        "nfa.transitions": c["nfa.transitions"],
        "nfa.eps_transitions": c["nfa.eps_transitions"],
        "nfa.member_s": total["nfa.member"],
        "nfa.member_letters": c["nfa.member_letters"],
        "nfa.longest_s": total["nfa.longest"],
        "nfa.longest_errors": c["nfa.longest_errors"],
        "nfa.inclusion_s": total["nfa.inclusion"],
        "nfa.determinize_s": total["nfa.determinize"],
        "nfa.dfa_states": c["nfa.dfa_states"],
        "pipeline.self_s": own["pipeline"],
    }


def _round(workload, ix, ops, speed):
    gc.collect()
    speed.sample()
    rnd = Round()
    workload.round(ix, ops, rnd)
    rnd.scale(speed.factor())
    return rnd


def run(workload, seed, seconds, trace, min_rounds=None):
    """One benchmark run; returns the result object that is printed.

    An untraced run makes at least MIN_ROUNDS rounds; a traced run
    makes at least one untraced and one traced round."""
    if min_rounds is None:
        min_rounds = 1 if trace else MIN_ROUNDS
    signal.signal(signal.SIGALRM, _alarm)
    speed = HostSpeed()
    ix, setup_s = _setup(workload, seed, speed)
    ops = Ops(ix, speed)
    workload.prepare(ix, ops)
    plain, traced, layers, spans_out = [], [], [], []
    start = time.perf_counter()
    # Start another round only while it is expected to end in time, so
    # a run lasts about `seconds` however long its rounds are.
    while (len(plain) < min_rounds or
           (time.perf_counter() - start) * (len(plain) + 1) / len(plain)
           <= seconds):
        rnd = _round(workload, ix, ops, speed)
        plain.append(rnd)
        if trace:
            ix.trace(True)
            rnd = _round(workload, ix, ops, speed)
            ix.trace(False)
            traced.append(rnd)
            layers.append(_layer_metrics(ix, rnd.factor))
            spans_out.append(ix.tracer.reset())

    med = statistics.median
    if trace:
        metrics = {k: med(m[k] for m in layers) for k in layers[0]}
        metrics["error_frac"] = ops.errors / ops.attempted
        # Measured seconds: each traced round directly follows an untraced
        # one, closer in host speed than the two rounds' scaling factors.
        metrics["trace.overhead_s"] = (
            med(r.raw_closure_s for r in traced) -
            med(r.raw_closure_s for r in plain))
        metrics["host.speed"] = med(r.factor for r in plain + traced)
        units = PER_LAYER
        _write_spans(workload.name, seed, spans_out)
    else:
        # Every round closes the same inputs in the same order; the
        # per-grammar time of an input is its median over the rounds.
        per_input = [med(r.closure_samples[i] for r in plain)
                     for i in range(len(plain[0].closure_samples))]
        metrics = {
            "setup_s": setup_s,
            "closure_s": med(r.closure_s for r in plain),
            "cover_s": med(r.cover_s for r in plain),
            "closure_p50_ms": 1000 * med(per_input),
            "closure_p90_ms": 1000 * _percentile(per_input, 90),
            "query_s": med(r.query_s for r in plain),
            "member_letters_per_s": med([r.member_letters / r.member_s
                                         for r in plain if r.member_s] or [0]),
            "decided_frac": ops.decided / ops.inputs,
            "clean_frac": 1 - ops.errors / ops.attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "closure_states": med(r.states for r in plain),
            "closure_transitions": med(r.transitions for r in plain),
        }
        units = END_TO_END
    print(f"{workload.name}: {len(plain)} rounds at host speed "
          f"{med(r.factor for r in plain):.3f}, "
          f"{ops.attempted} operations, {ops.errors} errors, "
          f"{ops.checked} checks, {len(ops.wrong)} wrong", file=sys.stderr)
    return {
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.errors,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def _write_spans(name, seed, rounds):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, recs in enumerate(rounds):
            for name_, start, end, parent, child in recs:
                fh.write(json.dumps({"round": i, "name": name_,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "self": end - start - child}) + "\n")

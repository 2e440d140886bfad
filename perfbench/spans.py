"""In-memory spans around the program's layer boundaries.

`install` rebinds, from outside the program, the stage names that
`ixdcl.pipeline.run_pipeline` looks up at call time (plus the
`trim_cfg` and `determinize` that `ixdcl.nfa` looks up), so a traced
run measures the program's own composition.  Nothing in `src/` is
edited.  Each span records its name, start, end and parent; a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index, child seconds]
        self.stack = []
        self.counts = Counter()

    def reset(self):
        done, self.spans, self.counts = self.spans, [], Counter()
        return done

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if rec[3] >= 0:
                self.spans[rec[3]][4] += rec[2] - rec[1]

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, count=None):
        """`fn` inside a span; `count(counts, args, result)` runs after."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced

    def layer_totals(self):
        total, own = Counter(), Counter()
        for name, start, end, _, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
        return total, own


STAGES = ("Analysis", "build_annotated", "StackMonoid", "SummaryFactory",
          "build_summary_graph", "build_cfg", "trim_cfg", "cfg_dcl_nfa",
          "dcl_close")


def install(tracer, pipeline, nfa):
    """Rebind the stage names to traced versions; returns an undo."""
    base = {name: getattr(pipeline, name) for name in STAGES}
    base_trim, base_determinize = nfa.trim_cfg, nfa.determinize

    class Analysis(base["Analysis"]):
        def universe(self):
            first = not getattr(self, "_bench_seen", False)
            self._bench_seen = True
            with tracer.span("analysis.universe"):
                out = super().universe()
            if first:
                tracer.counts["analysis.universe_size"] += len(out)
            return out

    class StackMonoid(base["StackMonoid"]):
        def __init__(self, *args, **kwargs):
            with tracer.span("monoid"):
                super().__init__(*args, **kwargs)
            tracer.counts["monoid.elements"] += len(self.elements)

        def j_length(self):
            with tracer.span("monoid"):
                out = super().j_length()
            c = tracer.counts
            c["monoid.j_length"] = max(c["monoid.j_length"], out)
            return out

    class SummaryFactory(base["SummaryFactory"]):
        def __init__(self, *args, **kwargs):
            with tracer.span("summaries"):
                super().__init__(*args, **kwargs)

        def push_letter(self, letter, sigma, trace=None):
            tracer.counts["summaries.pushes"] += 1
            return super().push_letter(letter, sigma, trace)

    def count(key, size):
        return lambda c, args, out: c.update({key: size(out)})

    def count_trim(c, args, out):
        if tracer.inside("pipeline"):
            c["cfg.trim_calls_in_pipeline"] += 1
        c["cfg.trim_in"] += len(args[0].nonterminals)
        c["cfg.trim_out"] += len(out.nonterminals)

    traced = {
        "Analysis": Analysis,
        "StackMonoid": StackMonoid,
        "SummaryFactory": SummaryFactory,
        "build_annotated": tracer.wrap(
            "annotate", base["build_annotated"],
            count("annotate.rules", lambda ag: len(ag.grammar.productions))),
        "build_summary_graph": tracer.wrap(
            "summaries", base["build_summary_graph"],
            count("summaries.nodes", lambda graph: len(graph.nodes))),
        "build_cfg": tracer.wrap(
            "cfg.build", base["build_cfg"],
            count("cfg.triples", lambda cfg: len(cfg.nonterminals))),
        "trim_cfg": tracer.wrap("cfg.trim", base["trim_cfg"], count_trim),
        "cfg_dcl_nfa": tracer.wrap("nfa.closure", base["cfg_dcl_nfa"]),
        "dcl_close": tracer.wrap("nfa.dcl_close", base["dcl_close"]),
    }
    for name, fn in traced.items():
        setattr(pipeline, name, fn)
    nfa.trim_cfg = tracer.wrap("cfg.trim", base_trim, count_trim)
    nfa.determinize = tracer.wrap(
        "nfa.determinize", base_determinize,
        count("nfa.dfa_states", lambda dfa: dfa.n_states))

    def undo():
        for name, fn in base.items():
            setattr(pipeline, name, fn)
        nfa.trim_cfg, nfa.determinize = base_trim, base_determinize
    return undo

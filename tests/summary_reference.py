"""The earlier summary graph, the reference for the one `ixdcl.summaries`
builds.

`ixdcl.summaries.build_summary_graph` keeps only the nodes, their ids
and the push targets during its breadth-first pass, and indexes the
edges and the pops once the pass is done; a cap exit indexes nothing.
`build_summary_graph` here indexes both as it pushes, and
`TupleKeyedFactory` keys every summary by (sub, atoms, blocks), where
the factory keys a summary of atoms alone by its `Word`.  Both are kept
as they were, so that a test can check that the graph, its dict and list
orders, and the point and message of a cap exit stay the same.
"""

from ixdcl.analysis import CapExceeded
from ixdcl.grammar import sort_key
from ixdcl.monoid import ZERO
from ixdcl.summaries import Summary, SummaryFactory, SummaryGraph


class TupleKeyedFactory(SummaryFactory):
    """The factory with every summary keyed by a tuple."""

    def summary(self, sub, atoms, blocks, phi, depth, size):
        """The summary sub atoms blocks, of known image, depth and size."""
        if atoms is None and not blocks:
            return sub if sub is not None else self.empty
        k = (sub, atoms, blocks)
        s = self._summaries.get(k)
        if s is None:
            s = self._summaries[k] = Summary(sub, atoms, blocks, phi, depth,
                                             size)
        return s


def build_summary_graph(factory, letters, cap=4096):
    """Breadth-first closure of the empty summary under feasible pushes."""
    m = factory.monoid
    rows = [(letter, m.left[m.gens[letter]])
            for letter in sorted(letters, key=sort_key)]
    nodes = [factory.empty]
    ids = {factory.empty: 0}
    edges = {}
    inverse = {}
    i = 0
    while i < len(nodes):
        sigma = nodes[i]
        i += 1
        for letter, row in rows:
            if row[sigma.phi] is ZERO:
                continue
            tgt = factory.push_letter(letter, sigma)
            edges[(sigma, letter)] = tgt
            inverse.setdefault((letter, tgt), []).append(sigma)
            if tgt not in ids:
                if len(nodes) >= cap:
                    raise CapExceeded.of("summary graph", len(nodes) + 1,
                                         "summaries", cap, "--max-summaries")
                ids[tgt] = len(nodes)
                nodes.append(tgt)
    return SummaryGraph(nodes, ids, edges, inverse)

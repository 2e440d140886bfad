"""The worklist solver: a changed key queues its readers and nothing else."""

from collections import Counter

from ixdcl.fixpoint import Solver


class Chain(Solver):
    """Keys 0..n: key i < n reads key i + 1 and adds 1 to a nonzero
    value; key n is 1.  No rule reads its own key."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.evals = Counter()

    def _init(self, key):
        return 0

    def _eval(self, key, old):
        self.evals[key] += 1
        if key == self.n:
            return 1
        below = self._need(key + 1)
        return below + 1 if below else 0


class Growing(Solver):
    """One key that reads itself through `_need` and grows to a bound."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound
        self.evals = 0

    def _init(self, key):
        return 0

    def _eval(self, key, old):
        self.evals += 1
        return min(self._need(key) + 1, self.bound)


def test_a_changed_key_queues_only_its_readers():
    # key 0 runs first and reads 1, ... down to n, which is 1; then each
    # key below runs once more when the key it reads changes
    n = 5
    chain = Chain(n)
    assert chain._solved(0) == n + 1
    assert chain._val == {i: n + 1 - i for i in range(n + 1)}
    assert chain.evals == {**{i: 2 for i in range(n)}, n: 1}


def test_a_rule_that_reads_itself_is_its_own_reader():
    # values 1..5, then a pass that changes nothing
    grow = Growing(5)
    assert grow._solved("x") == 5
    assert grow.evals == 6

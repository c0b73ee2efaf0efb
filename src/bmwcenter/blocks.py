"""Semisimplicity, admissibility and the block structure of Lambda_n.

Works over power regimes t = eps * q^N with q transcendental, so all
root-of-unity side conditions of the semisimplicity criterion hold
vacuously and membership tests reduce to comparing (sign, exponent) pairs.
"""

from __future__ import annotations

from itertools import combinations

from .center import separation_classes
from .errors import LevelMismatch, RegimeMismatch
from .partitions import Partition, intersection, skew_datum
from .scalars import Regime
from .tableaux import LabeledPartition


def is_semisimple(n, r: Regime) -> bool:
    """Semisimplicity of the level-n algebra in the given regime."""
    if r.is_generic or n <= 1:  # level 0 is the ground field
        return True
    eps, N = r.sign, r.exponent
    if (eps, N) in ((1, -1), (-1, 1)):  # t = q^-1 or t = -q
        return n in (3, 5)
    if n == 2:
        return True
    for k in range(3, n + 1):
        if (eps, N) in ((1, -(2 * k - 3)), (-1, 2 * k - 3)):
            return False
        if N in (3 - k, k - 3):
            return False
    return True


def check_admissible(lam: Partition, f, mu: Partition, r: Regime):
    """Conditions failed by the pair, empty when lam is (f, mu)-admissible.

    (1) mu contained in lam with |lam/mu| = 2f; (2) every skew diagonal i
    has a skew mate of equal multiplicity, which can only be -N - i since
    c(i) c(j) = q^(2N + 2i + 2j) at t = eps q^N; (3)/(4) parity constraints
    when a skew content equals q or -q^-1, which always pairs with its
    neighbour below or above.
    """
    if r.is_generic:
        raise RegimeMismatch("admissibility needs a power regime")
    if not lam.contains(mu) or lam.size - mu.size != 2 * f or f < 0:
        return [1]
    eps, N = r.sign, r.exponent
    sd = skew_datum(lam, mu)
    failed = [2] if any(sd[i] != sd.get(-N - i) for i in sd) else []
    for i in sorted(sd):
        if eps == 1 and N + 2 * i == 1 and sd.get(i - 1) and sd[i] % 2:
            failed.append(3)
        if eps == -1 and N + 2 * i == -1 and sd.get(i + 1) and sd[i] % 2:
            failed.append(4)
    return failed


def is_admissible(lam: Partition, f, mu: Partition, r: Regime) -> bool:
    return not check_admissible(lam, f, mu, r)


def block_equivalent(a: LabeledPartition, b: LabeledPartition, r: Regime) -> bool:
    """Both shapes admissible over their intersection with integral defects."""
    if a.level != b.level:
        raise LevelMismatch("levels %d and %d differ" % (a.level, b.level))
    if r.is_generic:
        return a == b
    lam, mu = a.shape, b.shape
    cap = intersection(lam, mu)
    # both shapes sit at one level, so |lam| and |mu| share a parity
    if (lam.size - cap.size) % 2:
        return False
    return (is_admissible(lam, (lam.size - cap.size) // 2, cap, r)
            and is_admissible(mu, (mu.size - cap.size) // 2, cap, r))


class BlockReport:
    __slots__ = ("n", "regime", "blocks", "agrees_with_W", "closure_pairs")

    def __init__(self, n, regime, blocks, agrees_with_W, closure_pairs):
        self.n = n
        self.regime = regime
        self.blocks = blocks
        self.agrees_with_W = agrees_with_W
        # pairs related only through transitive closure, not directly
        self.closure_pairs = closure_pairs


def block_partition(n, r: Regime) -> BlockReport:
    """Classes of Lambda_n under the closure of pairwise block equivalence.

    Blocks refine signature classes: with nu = lam & mu, condition (2)
    gives every skew diagonal i of lam/nu (and of mu/nu) a mate -N - i of
    equal multiplicity, and c(i) c(-N - i) = 1, so the skew content
    multiset is closed under inversion and cancels from W; directly
    equivalent shapes share their reduced signature, and so does their
    closure.  Only the pairs within each class of ``separation_classes``
    are tested.
    """
    report = separation_classes(n, r)
    # the classes hold Lambda_n once over; sorting restores its order
    lps = sorted((lp for c in report.classes for lp in c),
                 key=LabeledPartition.sort_key)
    index = {lp: i for i, lp in enumerate(lps)}
    parent = list(range(len(lps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    direct = set()
    # each class follows Lambda_n's order, so every pair has i < j
    for c in report.classes:
        for a, b in combinations(c, 2):
            if block_equivalent(a, b, r):
                i, j = index[a], index[b]
                direct.add((i, j))
                parent[find(i)] = find(j)
    # Lambda_n is sorted, so each group and the group order follow it
    groups = {}
    for i in range(len(lps)):
        groups.setdefault(find(i), []).append(i)
    closure = [p for g in groups.values() for p in combinations(g, 2)
               if p not in direct]
    closure.sort()
    blocks = [[lps[i] for i in g] for g in groups.values()]
    agrees = ({frozenset(c) for c in blocks}
              == {frozenset(c) for c in report.classes})
    return BlockReport(n, r, blocks, agrees, [(lps[i], lps[j]) for i, j in closure])


def verify_block_theorem(n, r: Regime) -> bool:
    """Block classes coincide with signature classes.

    Only stated for even-power regimes where the algebra fails to be
    semisimple; other inputs are rejected.
    """
    if not r.is_even_power:
        raise RegimeMismatch("block theorem needs an even-power regime")
    if is_semisimple(n, r):
        raise RegimeMismatch("level %d is semisimple in regime %s" % (n, r))
    return block_partition(n, r).agrees_with_W

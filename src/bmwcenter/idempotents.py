"""Spectrum-level primitive idempotents in the generic regime.

The recursive interpolation product is evaluated on the eigenvalue data of
every updown path; the resulting diagonal selects exactly the drunk path of
its shape.  Interpolation nodes at each level are the distinct branching
contents out of the drunk path's previous shape, so no denominator can
vanish while q and t stay independent.
"""

from __future__ import annotations

from .errors import RegimeMismatch, ZeroDenominator
from .partitions import Partition
from .scalars import GENERIC, LaurentQT, Regime, content_value
from .tableaux import (children, content_sequence, drunk_path, edge_content,
                       enumerate_lambda, enumerate_paths, path_counts)


def extension_contents(mu: Partition, r: Regime = GENERIC):
    """Distinct content values labeling branching edges out of mu."""
    return {content_value(edge_content(mu, m), r) for m in children(mu)}


class SpectralDiagonal:
    """Values of one idempotent on every updown path at its level."""

    __slots__ = ("n", "shape", "values")

    def __init__(self, n, shape, values):
        self.n = n
        self.shape = shape
        self.values = values

    def selected(self):
        return [t for t, v in self.values.items() if v == 1]


def spectral_idempotent(n, lam: Partition, r: Regime = GENERIC) -> SpectralDiagonal:
    """Diagonal of e_{lam,n} on all paths of all shapes at level n.

    The interpolation product is evaluated along the prefix tree of each
    shape's paths: consecutive paths in DFS order share a prefix, whose
    partial product is kept, and a prefix whose content hits a node makes
    every path through it 0 without further products.  Raises
    ``ResourceLimit`` if level n has more than ``MAX_PATHS`` paths.
    """
    if not r.is_generic:
        raise RegimeMismatch("idempotent evaluation is generic-regime only")
    path_counts(n)  # refuses a level above MAX_PATHS
    drunk = drunk_path(n, lam)
    drunk_values = [content_value(c, r) for c in content_sequence(drunk)]
    one = LaurentQT.const(1)
    nodes_at = []  # the interpolation nodes at each level
    den = one  # the product at the targets, the same for every path
    for k in range(1, n + 1):
        target = drunk_values[k - 1]
        nodes = sorted(extension_contents(drunk[k - 1], r) - {target})
        for c in nodes:
            if c == target:
                raise ZeroDenominator("colliding contents out of %s" % (drunk[k - 1],))
            den = den * (target.monomial() - c.monomial())
        nodes_at.append(nodes)
    factors = {}  # (k, parent, child) -> factor of that edge at level k

    def factor(k, a, b):
        """Product of (x - c) over the level-k nodes c, for the content x of
        the edge a -> b; None where x is a node."""
        key = (k, a, b)
        if key not in factors:
            x = content_value(edge_content(a, b), r)
            f = None
            if x not in nodes_at[k - 1]:
                f = one
                for c in nodes_at[k - 1]:
                    f = f * (x.monomial() - c.monomial())
            factors[key] = f
        return factors[key]

    values = {}
    for lp in enumerate_lambda(n):
        num = [one] * (n + 1)  # num[k]: product over levels 1..k of the prefix
        dead = n + 1  # the level where the previous path's prefix hit a node
        prev = None
        for path in enumerate_paths(n, lp.shape):
            d = 1  # first level where this path leaves the previous one
            if prev is not None:
                while path[d] is prev[d]:
                    d += 1
            prev = path
            if dead < d:
                values[path] = 0
                continue
            for k in range(d, n + 1):
                f = factor(k, path[k - 1], path[k])
                if f is None:
                    dead = k
                    values[path] = 0
                    break
                num[k] = num[k - 1] * f
            else:
                dead = n + 1
                # a surviving path must evaluate to exactly 1
                if num[n] != den:
                    raise ZeroDenominator(
                        "interpolation on %r is neither 0 nor 1" % (path,))
                values[path] = 1
    return SpectralDiagonal(n, lam, values)

"""Spectrum-level primitive idempotents in the generic regime.

e_{lam,n} interpolates each JM element at the branching contents out of
the drunk path's shape at the level before.  Generically those contents
are distinct, so a path that first leaves the drunk path at level k has a
node as its k-th content and gets 0, while the drunk path gets 1: the
diagonal is the drunk-path indicator (Okounkov-Vershik), held as its one
nonzero entry.  The product itself is evaluated only by the test oracle.
"""

from __future__ import annotations

from .partitions import Partition
from .tableaux import drunk_path, path_counts


class SpectralDiagonal:
    """One idempotent's nonzero values on its level's paths; absent paths are 0."""

    __slots__ = ("n", "shape", "values")

    def __init__(self, n, shape, values):
        self.n = n
        self.shape = shape
        self.values = values

    def selected(self):
        return [t for t, v in self.values.items() if v == 1]


def spectral_idempotent(n, lam: Partition) -> SpectralDiagonal:
    """Diagonal of e_{lam,n}: value 1 on the drunk path, 0 on every other.

    Raises ``ResourceLimit`` if level n has more than ``MAX_PATHS`` paths.
    """
    path_counts(n)  # refuses a level above MAX_PATHS
    return SpectralDiagonal(n, lam, {drunk_path(n, lam): 1})

"""Total orders on positive roots that respect addition.

An order is a tuple of integer linear functionals of the coefficients, each a
row over the simple roots.  A root's key is the tuple of their values,
compared lexicographically (the first functional that distinguishes
decides), so the key is additive (`RootOrder.respects_addition`), and
ascending key order is ascending root order.  Every order here is built from
two kinds of rows, given 1-based simple indices:

* `_coeffsum` is one row: sign * (sum of the coefficients at the indices);
* `_revlex` is one row per index of a priority sequence: minus that
  coefficient, first difference wins.

So in the reverse-lexicographic orders the leading-term arguments use, a
*larger* coefficient at the first distinguishing priority position makes a
root *smaller*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rootsys import Root, RootSystem


@dataclass(frozen=True)
class RootOrder:
    functionals: tuple[tuple[int, ...], ...]

    def key(self, root: Root) -> tuple[int, ...]:
        return tuple(sum(f * c for f, c in zip(row, root.coeffs)) for row in self.functionals)

    def sorted_roots(self, system: RootSystem) -> list[Root]:
        """Positive roots, ascending (index 0 is the smallest root)."""
        out = sorted(system.positive_roots, key=self.key)
        keys = [self.key(r) for r in out]
        if len(set(keys)) != len(keys):
            raise ValueError("order is not total on the positive roots")
        return out

    def respects_addition(self, system: RootSystem) -> bool:
        """Whether the key is additive: key(a) + key(b) == key(a + b) for all
        positive roots a, b with a + b a root (so beta <= gamma iff
        beta + lam <= gamma + lam, and `elementary._pivot_sets` is exact).
        """
        n = system.num_positive
        keys = np.array([self.key(r) for r in system.positive_roots])
        a, b = np.nonzero(system.sum_index[:n, :n] >= 0)
        return bool((keys[a] + keys[b] == keys[system.sum_index[a, b]]).all())


def _coeffsum(rank: int, indices, sign: int) -> tuple[tuple[int, ...], ...]:
    return (tuple(sign if j + 1 in indices else 0 for j in range(rank)),)


def _revlex(rank: int, priority) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(-1 if j + 1 == i else 0 for j in range(rank)) for i in priority)


def default_order(system: RootSystem) -> RootOrder:
    """Height ascending, ties by coefficient vector with alpha_1 first.

    This is the standard height order, so for a pair of simple roots the
    lower-numbered one is smaller; used where no section-specific order exists.
    """
    n = system.rank
    return RootOrder(_coeffsum(n, range(1, n + 1), 1) + _revlex(n, range(1, n + 1)))


def canonical_order(type_label: str, rank: int) -> RootOrder:
    """The exact positive-root order used by the unipotent classification.

    The reverse-lexicographic chains are read from the smallest simple root
    up: "given by a_i < a_1 < a_2 < ..." compares the a_i coefficient first,
    with a larger coefficient meaning a smaller root.
    """
    n = rank
    if type_label == "A":
        if n == 1:
            return RootOrder(_revlex(n, [1]))
        if n % 2 == 1:  # A_{2m+1}: unique block through alpha_{m+1}
            i = (n + 1) // 2
            rest = [j for j in range(1, n + 1) if j != i]
            return RootOrder(_revlex(n, [i] + rest))
        m = n // 2  # A_{2m}: two blocks through alpha_m, alpha_{m+1}
        rest = [j for j in range(1, n + 1) if j not in (m, m + 1)]
        return RootOrder(_coeffsum(n, (m, m + 1), -1) + _revlex(n, [m + 1, m] + rest))
    if type_label == "B" or type_label == "C":
        if type_label == "B" and n in (2, 3):
            return RootOrder(_revlex(n, range(1, n + 1)))
        if type_label == "C":
            rest = [j for j in range(1, n)]
            return RootOrder(_revlex(n, [n] + rest))
        # B_n, n >= 4: chain alpha_1 > ... > alpha_n, smallest is alpha_n
        return RootOrder(_revlex(n, range(n, 0, -1)))
    if type_label == "D":
        # chain alpha_{n-2} > ... > alpha_1 > alpha_{n-1} > alpha_n
        return RootOrder(_revlex(n, [n, n - 1, *range(1, n - 1)]))
    if type_label == "E" and n == 7:
        return RootOrder(_revlex(n, [7, 1, 2, 3, 4, 5, 6]))
    if type_label == "G":
        # reverse graded lexicographic with alpha_1 > alpha_2
        return RootOrder(_coeffsum(n, (1, 2), -1) + _revlex(n, [2, 1]))
    raise ValueError(f"no canonical leading-term order for type {type_label}{rank}")

"""Total orders on positive roots that respect addition.

An order is assembled from layers, each a tuple of linear functionals of the
coefficients, so its key is additive (`RootOrder.respects_addition`):

* ``("coeffsum", indices, sign)`` compares sign * (sum of the coefficients at
  the given 0-based simple indices);
* ``("revlex", priority, sign)`` compares sign * coefficient along the given
  priority sequence of 0-based simple indices, first difference wins.

Layers are combined by refinement (first layer that distinguishes decides),
and ascending key order is ascending root order.  The reverse-lexicographic
orders used by the leading-term arguments carry sign -1: a *larger*
coefficient at the first distinguishing priority position makes a root
*smaller*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rootsys import Root, RootSystem


@dataclass(frozen=True)
class RootOrder:
    layers: tuple

    def key(self, root: Root):
        parts = []
        for kind, data, sign in self.layers:
            if kind == "coeffsum":
                parts.append(sign * sum(root.coeffs[i] for i in data))
            elif kind == "revlex":
                parts.extend(sign * root.coeffs[i] for i in data)
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return tuple(parts)

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


def _revlex(priority_1based, sign=-1):
    return ("revlex", tuple(i - 1 for i in priority_1based), sign)


def default_order(system: RootSystem) -> RootOrder:
    """Height ascending, ties by coefficient vector with alpha_1 first.

    This is the standard height order, so for a pair of simple roots the
    lower-numbered one is smaller; used where no section-specific order exists.
    """
    n = system.rank
    return RootOrder(
        (("coeffsum", tuple(range(n)), 1), ("revlex", tuple(range(n)), -1))
    )


def canonical_order(type_label: str, rank: int) -> RootOrder:
    """The exact positive-root order used by the unipotent classification.

    The reverse-lexicographic chains are read from the smallest simple root
    up: "given by a_i < a_1 < a_2 < ..." compares the a_i coefficient first,
    with a larger coefficient meaning a smaller root.
    """
    n = rank
    if type_label == "A":
        if n == 1:
            return RootOrder((_revlex([1]),))
        if n % 2 == 1:  # A_{2m+1}: unique block through alpha_{m+1}
            i = (n + 1) // 2
            rest = [j for j in range(1, n + 1) if j != i]
            return RootOrder((_revlex([i] + rest),))
        m = n // 2  # A_{2m}: two blocks through alpha_m, alpha_{m+1}
        rest = [j for j in range(1, n + 1) if j not in (m, m + 1)]
        return RootOrder(
            (("coeffsum", (m - 1, m), -1), _revlex([m + 1, m] + rest))
        )
    if type_label == "B" or type_label == "C":
        if type_label == "B" and n in (2, 3):
            return RootOrder((_revlex(list(range(1, n + 1))),))
        if type_label == "C":
            rest = [j for j in range(1, n)]
            return RootOrder((_revlex([n] + rest),))
        # B_n, n >= 4: chain alpha_1 > ... > alpha_n, smallest is alpha_n
        return RootOrder((_revlex(list(range(n, 0, -1))),))
    if type_label == "D":
        # chain alpha_{n-2} > ... > alpha_1 > alpha_{n-1} > alpha_n
        return RootOrder((_revlex([n, n - 1] + list(range(1, n - 1))),))
    if type_label == "E" and n == 7:
        return RootOrder((_revlex([7, 1, 2, 3, 4, 5, 6]),))
    if type_label == "G":
        # reverse graded lexicographic with alpha_1 > alpha_2
        return RootOrder((("coeffsum", (0, 1), -1), _revlex([2, 1])))
    raise ValueError(f"no canonical leading-term order for type {type_label}{rank}")

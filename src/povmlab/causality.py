"""Deterministic causal maps between spaces and their tree composition.

A causal map carries observables backwards along an arrow of time: if U
propagates states from the source instant to the target instant, the map
sends an effect F at the target to U* F U at the source.  Trees of such
maps, with an observable attached to each node, collapse into a single
observable at the root by repeated pull-back and product.  Pull-back is
``measurement.conjugate_observable`` by the map's generator; the product is
measurement's ordered-product kernel behind its commutativity gate, so a
tree whose branches disagree simply has no sequential realization and says
so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import DimensionMismatch, NodeMismatch, NonCommuting, ValidationError
from . import operators as op
from .measurement import COMMUTE_TOL, Povm, conjugate_observable, first_clash, ordered_product

__all__ = [
    "CausalMap",
    "identity_map",
    "compose",
    "pull_back",
    "CausalTree",
    "realize_sequential",
]

Node = Hashable

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class CausalMap:
    """Heisenberg-picture map F -> U* F U between two labeled nodes.

    ``generator`` is the unitary that carries states from ``source`` to
    ``target``; the map itself acts on observables in the opposite
    direction.  It is refused when ``||U*U - I||`` exceeds ``UNITARY_TOL``.
    When the entries of ``U*U - I`` already bound that norm by half the
    tolerance (``op.norms_within_half``), the SVD is skipped: it would
    pass, and a NaN or infinite entry never takes that way.  A refusal
    always reports the SVD's defect.
    """

    source: Node
    target: Node
    generator: np.ndarray

    def __post_init__(self):
        u = op.as_operator(self.generator)
        gap = u.conj().T @ u - op.identity(u.shape[0])
        if not op.norms_within_half(gap, UNITARY_TOL):
            defect = op.operator_norm(gap)
            if defect > UNITARY_TOL:
                raise ValidationError(f"generator is not unitary (defect {defect:.3e})")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "generator", u)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def apply(self, operator) -> np.ndarray:
        """U* F U for a single operator F at the target node."""
        f = op.as_operator(operator)
        if f.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator dim {f.shape[0]} does not match map dim {self.dim}"
            )
        return self.generator.conj().T @ f @ self.generator


def identity_map(node: Node, other: Node, dim: int) -> CausalMap:
    return CausalMap(node, other, op.identity(dim))


def compose(m1: CausalMap, m2: CausalMap) -> CausalMap:
    """Chain maps head to tail: the result runs from m1.source to m2.target.

    State propagators multiply with the later leg on the left, so the
    observable action is m1 after m2.
    """
    if m1.target != m2.source:
        raise NodeMismatch(
            f"cannot compose: first map ends at {m1.target!r}, second starts at {m2.source!r}"
        )
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"map dims {m1.dim} and {m2.dim} differ")
    return CausalMap(m1.source, m2.target, m2.generator @ m1.generator)


def pull_back(m: CausalMap, observable: Povm) -> Povm:
    """Carry a whole observable from the map's target to its source."""
    if observable.dim != m.dim:
        raise DimensionMismatch(
            f"observable dim {observable.dim} does not match map dim {m.dim}"
        )
    return conjugate_observable(observable, m.generator)


class CausalTree:
    """Finite rooted tree of causal maps with one observable per node.

    ``parents`` maps every non-root node to its parent; ``maps`` holds, for
    every non-root node t, the causal map for the edge (parent(t), t).
    Children keep the declaration order of ``parents``, which fixes the
    factor order of sequential realization.
    """

    def __init__(
        self,
        root: Node,
        parents: Mapping[Node, Node],
        maps: Mapping[Node, CausalMap],
        observables: Mapping[Node, Povm],
    ):
        parents = dict(parents)
        if root in parents:
            raise ValidationError("the root cannot have a parent")
        nodes = [root] + list(parents.keys())
        if len(set(nodes)) != len(nodes):
            raise ValidationError("node labels must be unique")
        for t, p in parents.items():
            if p != root and p not in parents:
                raise ValidationError(f"parent {p!r} of {t!r} is not a tree node")
        for t in parents:
            seen = {t}
            cur = t
            while cur != root:
                cur = parents[cur]
                if cur in seen:
                    raise ValidationError(f"cycle through node {t!r}")
                seen.add(cur)
        maps = dict(maps)
        if set(maps.keys()) != set(parents.keys()):
            raise ValidationError("exactly the non-root nodes need edge maps")
        for t, m in maps.items():
            if m.source != parents[t] or m.target != t:
                raise NodeMismatch(
                    f"edge map for {t!r} runs {m.source!r}->{m.target!r}, "
                    f"expected {parents[t]!r}->{t!r}"
                )
        observables = dict(observables)
        missing = [t for t in nodes if t not in observables]
        if missing:
            raise ValidationError(f"nodes {missing!r} have no observable")
        for t, p in parents.items():
            if observables[t].dim != maps[t].dim:
                raise DimensionMismatch(f"observable and edge map at {t!r} disagree in dim")
            if observables[p].dim != maps[t].dim:
                raise DimensionMismatch(
                    f"edge map for {t!r} and the observable at its source {p!r} disagree in dim"
                )

        self.root = root
        self.parents = parents
        self.maps = maps
        self.observables = observables
        self._children: dict[Node, list[Node]] = {n: [] for n in nodes}
        for t in parents:  # declaration order
            self._children[parents[t]].append(t)

    @property
    def nodes(self) -> list[Node]:
        return [self.root] + list(self.parents.keys())

    def children(self, node: Node) -> list[Node]:
        return list(self._children[node])

    def map_between(self, ancestor: Node, descendant: Node) -> CausalMap:
        """Compose edge maps down a chain; both ends may coincide."""
        if ancestor == descendant:
            return identity_map(ancestor, ancestor, self.observables[ancestor].dim)
        chain = [descendant]
        cur = descendant
        while cur != ancestor:
            if cur not in self.parents:
                raise NodeMismatch(f"{ancestor!r} is not an ancestor of {descendant!r}")
            cur = self.parents[cur]
            chain.append(cur)
        chain.reverse()
        m = self.maps[chain[1]]
        for t in chain[2:]:
            m = compose(m, self.maps[t])
        return m


def realize_sequential(tree: CausalTree) -> Povm:
    """Collapse a causal tree into one observable at the root.

    Working leaves-up, each node multiplies its own observable with the
    pull-backs of its realized children (children in declaration order).
    The multiplication is gated on pairwise commutativity within
    ``COMMUTE_TOL``; a violation raises NonCommuting naming the two
    offending nodes.  Outcomes of the result nest the same way the
    recursion does: a node with children yields (own outcome, child
    outcome, ...).
    """

    def realize(node: Node) -> Povm:
        own = tree.observables[node]
        kids = tree.children(node)
        if not kids:
            return own
        nodes = [node] + kids
        factors = [own] + [pull_back(tree.maps[t], realize(t)) for t in kids]
        clash = first_clash(factors, COMMUTE_TOL)
        if clash is not None:
            i, j, _, _, norm = clash
            raise NonCommuting(nodes[i], nodes[j], norm)
        return Povm(*ordered_product(factors))

    return realize(tree.root)

import re

import numpy as np
import pytest

from povmlab import operators as op
from povmlab.causality import (
    UNITARY_TOL,
    CausalMap,
    CausalTree,
    compose,
    identity_map,
    pull_back,
    realize_sequential,
)
from povmlab.errors import (
    DimensionMismatch,
    NodeMismatch,
    NonCommuting,
    ValidationError,
)
from povmlab.measurement import Povm, PureState, existence_observable, outcome_pmf

from conftest import random_povm, random_state, random_unitary

TOL = 1e-12

f1 = op.basis_vector(2, 0)
f2 = op.basis_vector(2, 1)
g1 = (f1 + f2) / np.sqrt(2)
g2 = (f1 - f2) / np.sqrt(2)
QUARTER_TURN = np.diag([1.0, 1j])


def test_generator_must_be_unitary():
    with pytest.raises(ValidationError):
        CausalMap(0, 1, np.diag([1.0, 0.5]))
    # the SVD of a NaN gap does not converge: numpy's LinAlgError escaped
    with pytest.raises(ValidationError, match=re.escape("not unitary (defect nan)")):
        CausalMap(0, 1, [[np.nan, 0.0], [0.0, 1.0]])


def test_the_unitarity_check_refuses_exactly_what_the_svd_refuses():
    # U + eps X with defects from 1e-3 to 1e3 UNITARY_TOL, and across the
    # tolerance itself: refused exactly when the SVD's defect exceeds it,
    # with that defect's digits in the message
    rng = np.random.default_rng(83)
    verdicts = set()
    for dim in (1, 2, 3, 4):
        u = random_unitary(rng, dim)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        slope = op.operator_norm(u.conj().T @ x + x.conj().T @ u)
        scales = np.concatenate([np.logspace(-3, 3, 25), 1 + np.linspace(-1e-5, 1e-5, 21)])
        for scale in scales:
            g = u + (scale * UNITARY_TOL / slope) * x
            defect = op.operator_norm(g.conj().T @ g - op.identity(dim))
            verdicts.add(defect > UNITARY_TOL)
            if defect > UNITARY_TOL:
                with pytest.raises(ValidationError, match=re.escape(f"(defect {defect:.3e})")):
                    CausalMap(0, 1, g)
            else:
                CausalMap(0, 1, g)
    assert verdicts == {True, False}


def test_an_exact_unitary_is_accepted_without_an_svd(monkeypatch):
    rng = np.random.default_rng(97)
    u = random_unitary(rng, 4)

    def svd(*args, **kwargs):
        raise AssertionError("the entry bound should have settled this")

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert np.array_equal(CausalMap(0, 1, u).generator, u)
    assert CausalMap(0, 1, QUARTER_TURN).dim == 2


def test_map_preserves_identity_and_effects():
    m = CausalMap(0, 1, QUARTER_TURN)
    assert np.max(np.abs(m.apply(np.eye(2)) - np.eye(2))) <= TOL
    pulled = m.apply(op.projector(g1))
    expected = QUARTER_TURN.conj().T @ op.projector(g1) @ QUARTER_TURN
    assert np.max(np.abs(pulled - expected)) <= TOL


def test_compose_requires_matching_nodes():
    m1 = CausalMap(0, 1, QUARTER_TURN)
    m2 = CausalMap(2, 3, QUARTER_TURN)
    with pytest.raises(NodeMismatch):
        compose(m1, m2)


def test_compose_multiplies_generators():
    m1 = CausalMap(0, 1, QUARTER_TURN)
    m2 = CausalMap(1, 2, QUARTER_TURN)
    m = compose(m1, m2)
    assert (m.source, m.target) == (0, 2)
    assert np.max(np.abs(m.generator - np.diag([1.0, -1.0]))) <= TOL


def test_compose_is_associative():
    rng = np.random.default_rng(5)
    maps = [CausalMap(i, i + 1, random_unitary(rng, 3)) for i in range(3)]
    left = compose(compose(maps[0], maps[1]), maps[2])
    right = compose(maps[0], compose(maps[1], maps[2]))
    assert np.max(np.abs(left.generator - right.generator)) <= 1e-12


def test_pull_back_agrees_with_state_propagation():
    rng = np.random.default_rng(7)
    for seed in range(30):
        local = np.random.default_rng(seed)
        dim = int(local.integers(2, 5))
        o = random_povm(local, dim, 3)
        u = random_unitary(local, dim)
        s = random_state(local, dim)
        m = CausalMap("s", "t", u)
        heis = outcome_pmf(pull_back(m, o), s)
        schro = outcome_pmf(o, PureState(u @ s.vector))
        for x in o.outcomes:
            assert heis[x] == pytest.approx(schro[x], abs=TOL)


def chain_tree(observables, generators):
    """Nodes 0 -> 1 -> ... with edge maps generated by the given unitaries."""
    parents = {i: i - 1 for i in range(1, len(observables))}
    maps = {i: CausalMap(i - 1, i, generators[i - 1]) for i in parents}
    obs = dict(enumerate(observables))
    return CausalTree(0, parents, maps, obs)


def test_tree_rejects_cycles_and_dangling_edges():
    o = existence_observable(2)
    with pytest.raises(ValidationError):
        CausalTree(0, {1: 2, 2: 1}, {}, {0: o, 1: o, 2: o})
    m_bad = CausalMap(5, 1, np.eye(2))
    with pytest.raises(NodeMismatch):
        CausalTree(0, {1: 0}, {1: m_bad}, {0: o, 1: o})


def test_tree_rejects_an_edge_map_that_disagrees_with_its_source():
    # a 2-dim root under a 3-dim edge map and child fails when built, not
    # later in realize_sequential
    child = Povm.from_vectors((1, 2, 3), [op.basis_vector(3, i) for i in range(3)])
    root = Povm.from_vectors((1, 2), [f1, f2])
    maps = {1: CausalMap(0, 1, np.eye(3))}
    with pytest.raises(DimensionMismatch):
        CausalTree(0, {1: 0}, maps, {0: root, 1: child})
    # the same check one level down
    maps = {1: CausalMap(0, 1, np.eye(2)), 2: CausalMap(1, 2, np.eye(3))}
    with pytest.raises(DimensionMismatch):
        CausalTree(0, {1: 0, 2: 1}, maps, {0: root, 1: root, 2: child})


class _Wildcard:
    """A label equal to every label, while no other label equals it."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


class _Plain:
    """A label equal only to itself, hashed like ``_Wildcard``."""

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return 0


O2, O3 = existence_observable(2), existence_observable(3)
EDGE = {1: CausalMap(0, 1, np.eye(2))}
FORK = {1: 0, 2: 0}


# one case per refusal: the call, its error and a fragment of its message
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: CausalMap(0, 1, QUARTER_TURN).apply(np.eye(3)), DimensionMismatch,
     "operator dim 3 does not match map dim 2"),
    (lambda: compose(CausalMap(0, 1, np.eye(2)), CausalMap(1, 2, np.eye(3))), DimensionMismatch,
     "map dims 2 and 3 differ"),
    (lambda: pull_back(CausalMap(0, 1, np.eye(2)), O3), DimensionMismatch,
     "observable dim 3 does not match map dim 2"),
    (lambda: CausalTree(0, {0: 1, 1: 0}, {}, {}), ValidationError, "the root cannot have a parent"),
    # the root finds no equal parent key, but the key equals the root: only
    # labels whose equality is not symmetric get past the check above
    (lambda: CausalTree(_Wildcard(), {_Plain(): 0}, {}, {}), ValidationError,
     "node labels must be unique"),
    (lambda: CausalTree(0, {1: 7}, {}, {}), ValidationError, "parent 7 of 1 is not a tree node"),
    (lambda: CausalTree(0, {1: 0}, {}, {0: O2, 1: O2}), ValidationError,
     "exactly the non-root nodes need edge maps"),
    (lambda: CausalTree(0, {1: 0}, EDGE, {0: O2}), ValidationError, "nodes [1] have no observable"),
    (lambda: CausalTree(0, {1: 0}, EDGE, {0: O2, 1: O3}), DimensionMismatch,
     "observable and edge map at 1 disagree in dim"),
    (lambda: CausalTree(0, FORK, {**EDGE, 2: CausalMap(0, 2, np.eye(2))}, dict.fromkeys(range(3), O2))
     .map_between(1, 2), NodeMismatch, "1 is not an ancestor of 2"),
], ids=[
    "apply", "compose", "pull-back", "root-parent", "unique", "dangling-parent", "edge-maps",
    "observables", "edge-dim", "not-ancestor",
])
def test_maps_and_trees_refuse_each_bad_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_map_between_a_node_and_itself_is_the_identity():
    tree = chain_tree([existence_observable(3)] * 2, [random_unitary(np.random.default_rng(3), 3)])
    for node in (0, 1):
        m = tree.map_between(node, node)
        assert (m.source, m.target) == (node, node)
        assert np.array_equal(m.generator, np.eye(3))


def test_map_between_satisfies_composition_law():
    rng = np.random.default_rng(13)
    gens = [random_unitary(rng, 2) for _ in range(3)]
    tree = chain_tree([existence_observable(2)] * 4, gens)
    direct = tree.map_between(0, 3)
    stepped = compose(tree.map_between(0, 2), tree.map_between(2, 3))
    assert np.max(np.abs(direct.generator - stepped.generator)) <= 1e-10


def test_realization_of_single_node_is_its_observable():
    o = Povm.from_vectors((1, 2), [f1, f2])
    tree = CausalTree("r", {}, {}, {"r": o})
    realized = realize_sequential(tree)
    assert realized.outcomes == o.outcomes


def test_chain_realization_matches_hand_expansion():
    # commuting diagonal observables along a three-node chain
    d1 = Povm((1, 2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    d2 = Povm((1, 2), [np.diag([0.25, 0.75]), np.diag([0.75, 0.25])])
    d3 = Povm((1, 2), [np.diag([0.5, 0.5]), np.diag([0.5, 0.5])])
    phase = np.diag([1.0, np.exp(0.7j)])
    tree = chain_tree([d1, d2, d3], [phase, phase])

    realized = realize_sequential(tree)
    # by hand: effects im the nested order (x, (y, z))
    p2 = phase.conj().T
    inner = {
        (y, z): p2 @ (d2.effect(y) @ (p2 @ d3.effect(z) @ phase)) @ phase
        for y in (1, 2)
        for z in (1, 2)
    }
    for x in (1, 2):
        for yz, e in inner.items():
            expected = d1.effect(x) @ e
            got = realized.effect((x, yz))
            assert np.max(np.abs(got - expected)) <= TOL

    # outcome set is the full Cartesian product over nodes
    assert len(realized.outcomes) == 8


def test_two_child_tree_realizes_to_the_hand_built_ordered_product():
    # root r with children a and b; pulled back to r, every effect is
    # diagonal in one random basis, so the gate passes
    rng = np.random.default_rng(5)
    basis = random_unitary(rng, 3)

    def diagonal_effects(n):
        weights = rng.uniform(size=(n, 3))
        weights /= weights.sum(axis=0)
        return [basis @ np.diag(w) @ basis.conj().T for w in weights]

    ua, ub = random_unitary(rng, 3), random_unitary(rng, 3)
    root = Povm((1, 2), diagonal_effects(2))
    obs_a = Povm((1, 2, 3), [ua @ e @ ua.conj().T for e in diagonal_effects(3)])
    obs_b = Povm((1, 2), [ub @ e @ ub.conj().T for e in diagonal_effects(2)])
    maps = {"a": CausalMap("r", "a", ua), "b": CausalMap("r", "b", ub)}
    tree = CausalTree("r", {"a": "r", "b": "r"}, maps, {"r": root, "a": obs_a, "b": obs_b})
    realized = realize_sequential(tree)

    pulled_a = {y: ua.conj().T @ obs_a.effect(y) @ ua for y in obs_a.outcomes}
    pulled_b = {z: ub.conj().T @ obs_b.effect(z) @ ub for z in obs_b.outcomes}
    expected = {
        (x, y, z): root.effect(x) @ pulled_a[y] @ pulled_b[z]
        for x in root.outcomes
        for y in obs_a.outcomes
        for z in obs_b.outcomes
    }
    assert realized.outcomes == tuple(expected)
    for o, e in expected.items():
        assert np.array_equal(realized.effect(o), e)


def test_realized_pmf_equals_classical_composition():
    # diagonal chain: sequential outcome probabilities factor into a Markov chain
    d1 = Povm((1, 2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    d2 = Povm((1, 2), [np.diag([0.3, 0.6]), np.diag([0.7, 0.4])])
    tree = chain_tree([d1, d2], [np.eye(2)])
    u = PureState(np.array([0.8, 0.6]))
    p = outcome_pmf(realize_sequential(tree), u)
    assert p[(1, 1)] == pytest.approx(0.64 * 0.3, abs=TOL)
    assert p[(1, 2)] == pytest.approx(0.64 * 0.7, abs=TOL)
    assert p[(2, 1)] == pytest.approx(0.36 * 0.6, abs=TOL)
    assert p[(2, 2)] == pytest.approx(0.36 * 0.4, abs=TOL)


def test_two_branch_tree_with_drifted_branch_fails_to_commute():
    # same screen observable on both branches, but one branch evolves first
    og = Povm.from_vectors((1, 2), [g1, g2])
    root_obs = existence_observable(2)
    parents = {"a": "r", "b": "r"}
    maps = {
        "a": CausalMap("r", "a", QUARTER_TURN),
        "b": CausalMap("r", "b", np.eye(2)),
    }
    tree = CausalTree("r", parents, maps, {"r": root_obs, "a": og, "b": og})
    with pytest.raises(NonCommuting) as err:
        realize_sequential(tree)
    assert {err.value.first, err.value.second} == {"a", "b"}
    assert err.value.norm == pytest.approx(0.5, abs=TOL)


def test_two_branch_commuting_case_realizes():
    od = Povm((1, 2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    parents = {"a": "r", "b": "r"}
    maps = {
        "a": CausalMap("r", "a", QUARTER_TURN),
        "b": identity_map("r", "b", 2),
    }
    tree = CausalTree("r", parents, maps, {"r": existence_observable(2), "a": od, "b": od})
    realized = realize_sequential(tree)
    # outcomes are (root, a, b) triples in declaration order
    assert realized.outcomes[0] == (1, 1, 1)
    assert len(realized.outcomes) == 4
    p = outcome_pmf(realized, PureState(f1))
    assert p[(1, 1, 1)] == pytest.approx(1.0, abs=TOL)

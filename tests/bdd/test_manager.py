"""Unit tests for the BDD manager core."""

import itertools
import sys

import pytest

from repro.bdd import BddManager
from repro.errors import BddError, NodeLimitExceeded


@pytest.fixture
def mgr():
    return BddManager()


def test_constants(mgr):
    assert mgr.true != mgr.false
    assert mgr.apply_not(mgr.true) == mgr.false
    assert mgr.apply_not(mgr.false) == mgr.true
    assert mgr.is_constant(mgr.true)
    assert mgr.is_constant(mgr.false)


def test_construction_leaves_the_recursion_limit_alone():
    """The import raised the limit once; a manager never touches it."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        BddManager()
        assert sys.getrecursionlimit() == 5000
    finally:
        sys.setrecursionlimit(before)


def test_variable_creation_and_lookup(mgr):
    a = mgr.add_var("a")
    b = mgr.add_var("b")
    assert a != b
    assert mgr.var_name(mgr.var_of(a)) == "a"
    assert mgr.var_by_name("b") == mgr.var_of(b)
    assert mgr.num_vars == 2
    assert mgr.var_edge(mgr.var_of(a)) == a


def test_duplicate_variable_name_rejected(mgr):
    mgr.add_var("a")
    with pytest.raises(BddError):
        mgr.add_var("a")


def test_unknown_variable_rejected(mgr):
    with pytest.raises(BddError):
        mgr.var_edge(3)
    with pytest.raises(BddError):
        mgr.var_by_name("nope")


def test_negation_is_involution(mgr):
    a = mgr.add_var("a")
    assert mgr.apply_not(mgr.apply_not(a)) == a


def test_and_or_basic(mgr):
    a, b = mgr.add_vars(["a", "b"])
    assert mgr.apply_and(a, mgr.true) == a
    assert mgr.apply_and(a, mgr.false) == mgr.false
    assert mgr.apply_or(a, mgr.false) == a
    assert mgr.apply_or(a, mgr.true) == mgr.true
    assert mgr.apply_and(a, a) == a
    assert mgr.apply_and(a, mgr.apply_not(a)) == mgr.false
    assert mgr.apply_or(a, mgr.apply_not(a)) == mgr.true
    # Commutativity at the canonical-node level.
    assert mgr.apply_and(a, b) == mgr.apply_and(b, a)
    assert mgr.apply_or(a, b) == mgr.apply_or(b, a)


def test_de_morgan_is_structural(mgr):
    a, b = mgr.add_vars(["a", "b"])
    left = mgr.apply_not(mgr.apply_and(a, b))
    right = mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b))
    assert left == right


def test_xor_xnor(mgr):
    a, b = mgr.add_vars(["a", "b"])
    x = mgr.apply_xor(a, b)
    assert mgr.apply_xnor(a, b) == mgr.apply_not(x)
    assert mgr.apply_xor(a, a) == mgr.false
    assert mgr.apply_xor(a, mgr.apply_not(a)) == mgr.true


def test_ite_shannon_expansion(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.ite(a, b, c)
    for va, vb, vc in itertools.product([False, True], repeat=3):
        env = {mgr.var_of(a): va, mgr.var_of(b): vb, mgr.var_of(c): vc}
        assert mgr.evaluate(f, env) == (vb if va else vc)


def test_evaluate_requires_full_assignment(mgr):
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(a, b)
    with pytest.raises(BddError):
        mgr.evaluate(f, {mgr.var_of(a): True})


def test_and_many_or_many(mgr):
    vs = mgr.add_vars(["a", "b", "c", "d", "e"])
    conj = mgr.and_many(vs)
    disj = mgr.or_many(vs)
    env_true = {mgr.var_of(v): True for v in vs}
    env_one = {mgr.var_of(v): (i == 2) for i, v in enumerate(vs)}
    assert mgr.evaluate(conj, env_true)
    assert not mgr.evaluate(conj, env_one)
    assert mgr.evaluate(disj, env_one)
    assert mgr.and_many([]) == mgr.true
    assert mgr.or_many([]) == mgr.false


def test_support(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(a, mgr.apply_not(b)))
    assert mgr.support(f) == {mgr.var_of(a)}
    g = mgr.apply_xor(b, c)
    assert mgr.support(g) == {mgr.var_of(b), mgr.var_of(c)}
    assert mgr.support(mgr.true) == set()


def test_restrict(mgr):
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_xor(a, b)
    assert mgr.restrict(f, {mgr.var_of(a): True}) == mgr.apply_not(b)
    assert mgr.restrict(f, {mgr.var_of(a): False}) == b
    assert mgr.restrict(f, {}) == f
    both = mgr.restrict(f, {mgr.var_of(a): True, mgr.var_of(b): True})
    assert both == mgr.false


def test_cofactors(mgr):
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.ite(a, b, mgr.apply_not(b))
    hi, lo = mgr.cofactors(f, mgr.var_of(a))
    assert hi == b
    assert lo == mgr.apply_not(b)
    # Cofactor w.r.t. a variable above the top is the identity.
    hi, lo = mgr.cofactors(b, mgr.var_of(a))
    assert hi == b and lo == b


def test_exists_forall(mgr):
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(a, b)
    assert mgr.exists(f, [mgr.var_of(a)]) == b
    assert mgr.forall(f, [mgr.var_of(a)]) == mgr.false
    g = mgr.apply_or(a, b)
    assert mgr.exists(g, [mgr.var_of(a)]) == mgr.true
    assert mgr.forall(g, [mgr.var_of(a)]) == b
    assert mgr.exists(f, []) == f


def test_and_exists_matches_two_step(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_or(a, b)
    g = mgr.apply_or(mgr.apply_not(b), c)
    direct = mgr.and_exists(f, g, [mgr.var_of(b)])
    two_step = mgr.exists(mgr.apply_and(f, g), [mgr.var_of(b)])
    assert direct == two_step


def test_compose_single(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_and(a, b)
    g = mgr.apply_or(b, c)
    composed = mgr.compose(f, mgr.var_of(a), g)
    expected = mgr.apply_and(g, b)
    assert composed == expected


def test_vector_compose_is_simultaneous(mgr):
    a, b = mgr.add_vars(["a", "b"])
    # Swap a and b simultaneously: f(a, b) -> f(b, a).
    f = mgr.apply_and(a, mgr.apply_not(b))
    swapped = mgr.vector_compose(
        f, {mgr.var_of(a): b, mgr.var_of(b): a}
    )
    assert swapped == mgr.apply_and(b, mgr.apply_not(a))


def test_rename_vars(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_xor(a, b)
    renamed = mgr.rename_vars(f, {mgr.var_of(a): mgr.var_of(c)})
    assert renamed == mgr.apply_xor(c, b)


def test_sat_count(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    assert mgr.sat_count(mgr.true) == 8
    assert mgr.sat_count(mgr.false) == 0
    assert mgr.sat_count(a) == 4
    assert mgr.sat_count(mgr.apply_and(a, b)) == 2
    assert mgr.sat_count(mgr.apply_xor(a, c)) == 4
    assert mgr.sat_count(mgr.apply_and(a, mgr.apply_and(b, c))) == 1
    assert mgr.sat_count(a, nvars=5) == 16
    with pytest.raises(BddError):
        mgr.sat_count(a, nvars=2)


def test_pick_one(mgr):
    a, b = mgr.add_vars(["a", "b"])
    assert mgr.pick_one(mgr.false) is None
    f = mgr.apply_and(mgr.apply_not(a), b)
    model = mgr.pick_one(f)
    assert model[mgr.var_of(a)] is False
    assert model[mgr.var_of(b)] is True


def test_cube(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    cube = mgr.cube({mgr.var_of(a): True, mgr.var_of(c): False})
    assert cube == mgr.apply_and(a, mgr.apply_not(c))


def test_dag_size(mgr):
    a, b = mgr.add_vars(["a", "b"])
    assert mgr.dag_size(mgr.true) == 1
    assert mgr.dag_size(a) == 2
    f = mgr.apply_xor(a, b)
    # x xor y: node(a) + node(b) + terminal.
    assert mgr.dag_size(f) == 3
    # The literal node of `a` differs from the xor's top node, so the union
    # has one extra node; the shared `b` node and terminal are not recounted.
    assert mgr.dag_size([f, a]) == 4
    assert mgr.dag_size([f, b]) == 3


def test_node_limit():
    mgr = BddManager(node_limit=4)
    vs = mgr.add_vars(["a", "b", "c"])
    with pytest.raises(NodeLimitExceeded):
        # Parity over three variables needs more than four nodes.
        mgr.apply_xor(mgr.apply_xor(vs[0], vs[1]), vs[2])


def test_garbage_collect_keeps_roots(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    ids = [mgr.var_of(v) for v in (a, b, c)]
    keep = mgr.apply_and(a, b)
    token = mgr.register_root(keep)
    mgr.apply_xor(mgr.apply_or(a, c), b)  # becomes garbage
    live_before = mgr.live_nodes
    freed = mgr.garbage_collect()
    assert freed > 0
    assert mgr.live_nodes == live_before - freed
    # The kept function still evaluates correctly (unregistered edges such as
    # the bare literals must not be used after collection).
    env = {ids[0]: True, ids[1]: True, ids[2]: False}
    assert mgr.evaluate(keep, env)
    mgr.check_invariants()
    mgr.release_root(token)


def test_garbage_collect_then_reuse(mgr):
    a, b = mgr.add_vars(["a", "b"])
    mgr.apply_xor(a, b)
    mgr.register_root(a)
    mgr.register_root(b)
    mgr.garbage_collect()
    # Recreate the collected function; indices are recycled.
    f = mgr.apply_xor(a, b)
    env = {mgr.var_of(a): True, mgr.var_of(b): False}
    assert mgr.evaluate(f, env)
    mgr.check_invariants()


def test_invariants_after_mixed_workload(mgr):
    vs = mgr.add_vars(["x{}".format(i) for i in range(6)])
    f = mgr.true
    for i, v in enumerate(vs):
        f = mgr.apply_xor(f, v) if i % 2 else mgr.apply_and(f, mgr.apply_or(v, f))
    g = mgr.exists(f, [mgr.var_of(vs[0]), mgr.var_of(vs[3])])
    mgr.vector_compose(g, {mgr.var_of(vs[1]): f})
    assert mgr.check_invariants()


def test_peak_and_live_counters(mgr):
    a, b = mgr.add_vars(["a", "b"])
    mgr.apply_and(a, b)
    assert mgr.peak_live_nodes >= mgr.live_nodes
    assert mgr.created_nodes >= mgr.live_nodes


def test_constrain_basics(mgr):
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(a, b)
    # Care set TRUE: identity.
    assert mgr.constrain(f, mgr.true) == f
    # f restricted to its own on-set is TRUE.
    assert mgr.constrain(f, f) == mgr.true
    assert mgr.constrain(f, mgr.apply_not(f)) == mgr.false
    with pytest.raises(BddError):
        mgr.constrain(f, mgr.false)


def test_constrain_is_canonical_for_care_equivalence(mgr):
    a, b, c = mgr.add_vars(["a", "b", "c"])
    care = a  # care set: a == 1
    f = mgr.apply_and(a, b)   # on care: b
    g = b                     # on care: b
    assert mgr.constrain(f, care) == mgr.constrain(g, care)
    h = mgr.apply_or(b, c)
    assert mgr.constrain(f, care) != mgr.constrain(h, care)


def test_constrain_agrees_on_care_points(mgr):
    import itertools

    vs = mgr.add_vars(["x0", "x1", "x2"])
    ids = [mgr.var_of(v) for v in vs]
    f = mgr.apply_xor(mgr.apply_and(vs[0], vs[1]), vs[2])
    care = mgr.apply_or(vs[0], vs[2])
    g = mgr.constrain(f, care)
    for bits in itertools.product([False, True], repeat=3):
        env = dict(zip(ids, bits))
        if mgr.evaluate(care, env):
            assert mgr.evaluate(g, env) == mgr.evaluate(f, env)


def test_and_is_false(mgr):
    a, b = mgr.add_vars(["a", "b"])
    assert mgr.and_is_false(a, mgr.apply_not(a))
    assert mgr.and_is_false(mgr.false, a)
    assert not mgr.and_is_false(a, b)
    assert not mgr.and_is_false(a, a)
    assert not mgr.and_is_false(mgr.true, mgr.true)
    f = mgr.apply_and(a, b)
    g = mgr.apply_nor(a, b)
    assert mgr.and_is_false(f, g)

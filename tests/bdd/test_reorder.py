"""Tests for in-place adjacent swaps and sifting reordering."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager, sift, swap_adjacent, maybe_sift

from .test_ops_property import NVARS, build_bdd, eval_expr, exprs, all_envs


def build_registered(expr):
    mgr = BddManager()
    variables = mgr.add_vars(["x{}".format(i) for i in range(NVARS)])
    var_ids = [mgr.var_of(v) for v in variables]
    f = build_bdd(mgr, variables, expr)
    mgr.register_root(f)
    for v in variables:
        mgr.register_root(v)
    return mgr, var_ids, f


def check_function_preserved(mgr, var_ids, f, expr):
    for env in all_envs():
        bdd_env = {var_ids[i]: env[i] for i in range(NVARS)}
        assert mgr.evaluate(f, bdd_env) == eval_expr(expr, env)


@settings(max_examples=120, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=NVARS - 2))
def test_swap_preserves_functions(expr, level):
    mgr, var_ids, f = build_registered(expr)
    order_before = mgr.current_order()
    swap_adjacent(mgr, level)
    order_after = mgr.current_order()
    assert order_after[level] == order_before[level + 1]
    assert order_after[level + 1] == order_before[level]
    mgr.check_invariants()
    check_function_preserved(mgr, var_ids, f, expr)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.lists(st.integers(min_value=0, max_value=NVARS - 2), max_size=8))
def test_swap_sequences_preserve_functions(expr, levels):
    mgr, var_ids, f = build_registered(expr)
    for level in levels:
        swap_adjacent(mgr, level)
    mgr.check_invariants()
    check_function_preserved(mgr, var_ids, f, expr)


def test_swap_is_its_own_inverse():
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.ite(a, b, mgr.apply_not(c))
    mgr.register_root(f)
    for v in (a, b, c):
        mgr.register_root(v)
    order = mgr.current_order()
    size = mgr.live_nodes
    swap_adjacent(mgr, 0)
    swap_adjacent(mgr, 0)
    assert mgr.current_order() == order
    assert mgr.live_nodes == size
    mgr.check_invariants()


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_sift_preserves_functions(expr):
    mgr, var_ids, f = build_registered(expr)
    sift(mgr)
    mgr.check_invariants()
    check_function_preserved(mgr, var_ids, f, expr)


def test_sift_shrinks_interleaving_worst_case():
    # f = x0·y0 + x1·y1 + x2·y2 with order x0 x1 x2 y0 y1 y2 is the textbook
    # exponential-vs-linear ordering example; sifting must find a small order.
    mgr = BddManager()
    n = 4
    xs = mgr.add_vars(["x{}".format(i) for i in range(n)])
    ys = mgr.add_vars(["y{}".format(i) for i in range(n)])
    f = mgr.or_many(mgr.apply_and(x, y) for x, y in zip(xs, ys))
    mgr.register_root(f)
    for v in xs + ys:
        mgr.register_root(v)
    before = mgr.dag_size(f)
    sift(mgr)
    after = mgr.dag_size(f)
    assert after < before
    # Optimal interleaved order gives 2n + 2 nodes including the terminal.
    assert after <= 2 * n + 2
    mgr.check_invariants()
    # Function is intact.
    env = {mgr.var_of(v): False for v in xs + ys}
    assert not mgr.evaluate(f, env)
    env[mgr.var_of(xs[2])] = True
    env[mgr.var_of(ys[2])] = True
    assert mgr.evaluate(f, env)


def test_sift_with_multiple_roots():
    mgr = BddManager()
    vs = mgr.add_vars(["v{}".format(i) for i in range(6)])
    f = mgr.and_many(vs[:4])
    g = mgr.apply_xor(vs[4], vs[5])
    h = mgr.apply_or(f, g)
    for edge in (f, g, h):
        mgr.register_root(edge)
    for v in vs:
        mgr.register_root(v)
    sift(mgr)
    mgr.check_invariants()
    env = {mgr.var_of(v): True for v in vs}
    assert mgr.evaluate(f, env)
    assert not mgr.evaluate(g, env)
    assert mgr.evaluate(h, env)


def test_maybe_sift_trigger():
    mgr = BddManager()
    xs = mgr.add_vars(["x{}".format(i) for i in range(3)])
    ys = mgr.add_vars(["y{}".format(i) for i in range(3)])
    f = mgr.or_many(mgr.apply_and(x, y) for x, y in zip(xs, ys))
    mgr.register_root(f)
    for v in xs + ys:
        mgr.register_root(v)
    assert not maybe_sift(mgr, threshold=10 ** 9)
    assert maybe_sift(mgr, threshold=1)


def test_order_queries_after_sift():
    mgr = BddManager()
    vs = mgr.add_vars(["a", "b", "c", "d"])
    f = mgr.and_many(vs)
    mgr.register_root(f)
    for v in vs:
        mgr.register_root(v)
    sift(mgr)
    order = mgr.current_order()
    assert sorted(order) == list(range(4))
    for level, var in enumerate(order):
        assert mgr.level_of(var) == level
        assert mgr.var_at_level(level) == var

"""The BDD kernel's work is pinned, node by node and counter by counter.

``BddManager`` prepares each substitution and assignment once
(``composer``/``restrictor``) and runs ``ite``, composition, restriction and
the ``f ∧ g`` walks with the constants as literals and the top-level and
cofactor steps inlined.  Neither may change the work: ``ReferenceManager``
keeps the kernel they replaced (property constants, ``_top_level`` and
``_fast_cofactors`` calls, a full re-validation on every composition and
restriction), and must agree with ``BddManager`` on every edge and on
``created_nodes``, ``live_nodes``, ``peak_live_nodes``, ``cache_lookups``
and ``cache_hits`` after every call of mixed scripts, including sifting and
garbage collection while a prepared form is held.  The ``van_eijk`` pins
at the bottom hold the engine's counts at the values that kernel produces.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bdd import BddManager, sift, swap_adjacent
from repro.circuits import row_by_name
from repro.core import engine
from repro.errors import BddError

NVARS = 6


class ReferenceManager(BddManager):
    """Reference kernel: every composition and restriction validates,
    sorts and bounds its map again, and every recursion step goes through
    ``true``/``false``, ``_top_level`` and ``_fast_cofactors``."""

    def composer(self, substitution):
        substitution = dict(substitution)
        return lambda f: self.vector_compose(f, substitution)

    def restrictor(self, assignment):
        assignment = dict(assignment)
        return lambda f: self.restrict(f, assignment)

    def ite(self, f, g, h):
        if f == self.true:
            return g
        if f == self.false:
            return h
        if g == h:
            return g
        if g == self.true and h == self.false:
            return f
        if g == self.false and h == self.true:
            return f ^ 1
        if g == f:
            g = self.true
        elif g == (f ^ 1):
            g = self.false
        if h == f:
            h = self.false
        elif h == (f ^ 1):
            h = self.true
        if g == self.true and h == self.false:
            return f
        if g == self.false and h == self.true:
            return f ^ 1
        if g == h:
            return g
        if f & 1:
            f, g, h = f ^ 1, h, g
        if g == self.true and self._top_level(h) < self._top_level(f):
            f, h = h, f
        elif h == self.false and self._top_level(g) < self._top_level(f):
            f, g = g, f
        elif g == (h ^ 1) and self._top_level(g) < self._top_level(f):
            f, g = g, f
            h = g ^ 1
        negate = False
        if g & 1:
            g, h = g ^ 1, h ^ 1
            negate = True
        key = (f, g, h)
        self.cache_lookups += 1
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached ^ 1 if negate else cached
        top = min(self._top_level(f), self._top_level(g), self._top_level(h))
        var = self._var_at_level[top]
        f1, f0 = self._fast_cofactors(f, var)
        g1, g0 = self._fast_cofactors(g, var)
        h1, h0 = self._fast_cofactors(h, var)
        t = self.ite(f1, g1, h1)
        e = self.ite(f0, g0, h0)
        result = self._mk(var, t, e)
        self._ite_cache[key] = result
        return result ^ 1 if negate else result

    def and_is_false(self, f, g):
        cache = self._misc_cache

        def rec(a, b):
            if a == self.false or b == self.false:
                return True
            if a == self.true and b == self.true:
                return False
            if a == (b ^ 1):
                return True
            if a == self.true or b == self.true or a == b:
                return False
            if a > b:
                a, b = b, a
            key = ("AIF", a, b)
            cached = cache.get(key)
            if cached is not None:
                return cached
            level = min(self._top_level(a), self._top_level(b))
            var = self._var_at_level[level]
            a1, a0 = self._fast_cofactors(a, var)
            b1, b0 = self._fast_cofactors(b, var)
            result = rec(a1, b1) and rec(a0, b0)
            cache[key] = result
            return result

        return rec(f, g)

    def pick_one_and(self, f, g):
        cache = self._misc_cache
        assignment = {}

        def rec(a, b):
            if a == self.false or b == self.false:
                return False
            if a == self.true and b == self.true:
                return True
            if a == (b ^ 1):
                return False
            if a == b or a == self.true or b == self.true:
                assignment.update(self.pick_one(b if a == self.true else a))
                return True
            aa, bb = (a, b) if a <= b else (b, a)
            key = ("AIF", aa, bb)
            if cache.get(key) is True:
                return False
            level = min(self._top_level(a), self._top_level(b))
            var = self._var_at_level[level]
            a1, a0 = self._fast_cofactors(a, var)
            b1, b0 = self._fast_cofactors(b, var)
            assignment[var] = True
            if rec(a1, b1):
                return True
            assignment[var] = False
            if rec(a0, b0):
                return True
            del assignment[var]
            cache[key] = True
            return False

        return assignment if rec(f, g) else None

    def restrict(self, f, assignment):
        if not assignment:
            return f
        fixed = {}
        for var, value in assignment.items():
            self._check_var(var)
            fixed[var] = bool(value)
        max_level = max(self._level_of_var[v] for v in fixed)
        token = tuple(sorted(fixed.items()))
        return self._restrict_rec(f, fixed, max_level, token)

    def _restrict_rec(self, f, fixed, max_level, token):
        if self.is_constant(f) or self._top_level(f) > max_level:
            return f
        key = (f, token)
        self.cache_lookups += 1
        cached = self._misc_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        var = self._var_at_level[self._top_level(f)]
        hi, lo = self._fast_cofactors(f, var)
        if var in fixed:
            result = self._restrict_rec(
                hi if fixed[var] else lo, fixed, max_level, token)
        else:
            t = self._restrict_rec(hi, fixed, max_level, token)
            e = self._restrict_rec(lo, fixed, max_level, token)
            result = self._mk(var, t, e)
        self._misc_cache[key] = result
        return result

    def vector_compose(self, f, substitution):
        if not substitution:
            return f
        subst = {}
        for var, edge in substitution.items():
            self._check_var(var)
            subst[var] = edge
        token = tuple(sorted(subst.items()))
        cache = self._compose_cache.setdefault(token, {})
        max_level = max(self._level_of_var[v] for v in subst)
        return self._compose_rec(f, subst, max_level, cache)

    def _compose_rec(self, f, subst, max_level, cache):
        if self.is_constant(f) or self._top_level(f) > max_level:
            return f
        sign = f & 1
        node = f >> 1
        cached = cache.get(node)
        if cached is not None:
            return cached ^ sign
        var = self._var[node]
        t = self._compose_rec(self._hi[node], subst, max_level, cache)
        e = self._compose_rec(self._lo[node], subst, max_level, cache)
        replacement = subst.get(var)
        if replacement is None:
            replacement = self._mk(var, self.true, self.false)
        result = self.ite(replacement, t, e)
        cache[node] = result
        return result ^ sign


def counters(mgr):
    return (mgr.created_nodes, mgr.live_nodes, mgr.peak_live_nodes,
            mgr.cache_lookups, mgr.cache_hits)


class Twin:
    """One script run on a kernel manager and a reference manager.

    ``pool[i]`` is one edge held by both (equal integers, since both
    managers allocate identically); ``rooted[i]`` says whether it survives
    garbage collection.  ``held`` are prepared forms, one per manager.
    """

    def __init__(self):
        self.managers = (BddManager(), ReferenceManager())
        literals = [m.add_vars(["v{}".format(i) for i in range(NVARS)])
                    for m in self.managers]
        assert literals[0] == literals[1]
        for mgr in self.managers:
            for edge in literals[0]:
                mgr.register_root(edge)
        self.pool = list(literals[0])
        self.rooted = [True] * NVARS
        self.held = []

    def edge(self, i):
        return self.pool[i % len(self.pool)]

    def agree(self, results):
        """One result per manager: results and counters must agree."""
        assert results[0] == results[1]
        assert counters(self.managers[0]) == counters(self.managers[1])
        return results[0]

    def both(self, call):
        return self.agree([call(mgr) for mgr in self.managers])

    def apply(self, forms, f):
        """A held pair of prepared forms, applied to ``f``."""
        return self.agree([form(f) for form in forms])

    def keep(self, edge, rooted):
        if rooted:
            for mgr in self.managers:
                mgr.register_root(edge)
        self.pool.append(edge)
        self.rooted.append(rooted)

    def prepare(self, kind, mapping):
        if kind == "composer":
            mapping = {var: self.edge(i) for var, i in mapping.items()}
            for mgr in self.managers:
                for edge in mapping.values():
                    mgr.register_root(edge)
        self.held.append(
            tuple(getattr(mgr, kind)(mapping) for mgr in self.managers))

    def collect(self, call):
        """GC or sift: only rooted edges stay in the pool."""
        self.both(call)
        self.pool = [e for e, r in zip(self.pool, self.rooted) if r]
        self.rooted = [True] * len(self.pool)

    def check(self):
        for mgr in self.managers:
            mgr.check_invariants()


index = st.integers(0, 999)
var = st.integers(0, NVARS - 1)
steps = st.one_of(
    st.tuples(st.sampled_from(["and", "or", "xor"]), index, index,
              st.booleans()),
    st.tuples(st.just("ite"), index, index, index, st.booleans()),
    st.tuples(st.just("compose"), st.dictionaries(var, index, min_size=1,
                                                  max_size=3),
              index, st.booleans()),
    st.tuples(st.just("restrict"), st.dictionaries(var, st.booleans(),
                                                   min_size=1, max_size=3),
              index, st.booleans()),
    st.tuples(st.just("composer"), st.dictionaries(var, index, min_size=1,
                                                   max_size=NVARS)),
    st.tuples(st.just("restrictor"), st.dictionaries(var, st.booleans(),
                                                     min_size=1, max_size=3)),
    st.tuples(st.just("apply"), index, index, st.booleans()),
    st.tuples(st.sampled_from(["and_is_false", "pick_one_and"]), index,
              index),
    st.tuples(st.sampled_from(["gc", "sift", "swap"]), var),
)

BINARY = {"and": "apply_and", "or": "apply_or", "xor": "apply_xor"}


def run_script(script):
    twin = Twin()
    for step in script:
        kind = step[0]
        if kind in BINARY:
            _, i, j, rooted = step
            f, g = twin.edge(i), twin.edge(j)
            twin.keep(twin.both(lambda m: getattr(m, BINARY[kind])(f, g)),
                      rooted)
        elif kind == "ite":
            _, i, j, k, rooted = step
            f, g, h = twin.edge(i), twin.edge(j), twin.edge(k)
            twin.keep(twin.both(lambda m: m.ite(f, g, h)), rooted)
        elif kind == "compose":
            _, mapping, i, rooted = step
            subst = {v: twin.edge(j) for v, j in mapping.items()}
            f = twin.edge(i)
            twin.keep(twin.both(lambda m: m.vector_compose(f, subst)), rooted)
        elif kind == "restrict":
            _, assignment, i, rooted = step
            f = twin.edge(i)
            twin.keep(twin.both(lambda m: m.restrict(f, assignment)), rooted)
        elif kind in ("composer", "restrictor"):
            twin.prepare(kind, step[1])
        elif kind == "apply":
            _, h, i, rooted = step
            if not twin.held:
                continue
            forms = twin.held[h % len(twin.held)]
            twin.keep(twin.apply(forms, twin.edge(i)), rooted)
        elif kind in ("and_is_false", "pick_one_and"):
            _, i, j = step
            f, g = twin.edge(i), twin.edge(j)
            twin.both(lambda m: getattr(m, kind)(f, g))
        else:
            twin.collect(collection(step))
    return twin


def collection(step):
    kind, level = step
    if kind == "gc":
        return lambda m: m.garbage_collect()
    if kind == "sift":
        return lambda m: sift(m)
    level %= NVARS - 1
    return lambda m: swap_adjacent(m, level)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=40))
def test_mixed_scripts_match_the_reference(script):
    run_script(script).check()


collections = st.tuples(st.sampled_from(["gc", "sift", "swap"]), var)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=20),
       st.dictionaries(var, index, min_size=1, max_size=NVARS),
       st.dictionaries(var, st.booleans(), min_size=1, max_size=3),
       st.lists(collections, min_size=1, max_size=3))
def test_prepared_forms_held_across_collections_match_the_reference(
        script, mapping, assignment, steps_between):
    """Every held form is applied to every pool edge, its results left
    unrooted, before and after each collection or reordering: a form that
    kept its memo table or level bound would answer from freed nodes or
    stop above a moved variable."""
    twin = run_script(script)
    twin.prepare("composer", mapping)
    twin.prepare("restrictor", assignment)
    for step in steps_between + [None]:
        for f in list(twin.pool):
            for forms in twin.held:
                twin.apply(forms, f)
        if step is not None:
            twin.collect(collection(step))
    twin.check()


def test_ite_with_a_complemented_first_argument_matches_the_reference():
    """``b ∨ ¬a`` with a above b is ``ite(b, 1, ¬a)``: the standard-triple
    swap makes ``¬a`` the first argument, whose cofactors carry its sign."""
    twin = Twin()
    a, b = twin.pool[0], twin.pool[1]
    f = twin.both(lambda m: m.apply_or(b, a ^ 1))
    for va in (False, True):
        for vb in (False, True):
            env = dict.fromkeys(range(NVARS), False)
            env[0], env[1] = va, vb
            assert twin.managers[0].evaluate(f, env) == (vb or not va)


# ------------------------------------------------------------ prepared forms


def test_empty_maps_prepare_the_identity():
    mgr = BddManager()
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_xor(a, b)
    assert mgr.composer({})(f) == mgr.vector_compose(f, {}) == f
    assert mgr.restrictor({})(f) == mgr.restrict(f, {}) == f


def test_prepared_forms_validate_their_variables_once_up_front():
    mgr = BddManager()
    a = mgr.add_var("a")
    with pytest.raises(BddError, match="unknown variable index"):
        mgr.composer({5: a})
    with pytest.raises(BddError, match="unknown variable index"):
        mgr.restrictor({5: True})


def test_composer_rederives_its_level_bound_after_reordering():
    """``{a: c}`` bounds the walk at a's level.  Once a is sifted below b,
    a composer that kept its old bound would stop at b and leave a in."""
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_and(a, b)
    g = mgr.apply_xor(a, b)
    for edge in (a, b, c, f, g):
        mgr.register_root(edge)
    substitute = mgr.composer({mgr.var_of(a): c})
    restrict = mgr.restrictor({mgr.var_of(a): False})
    assert substitute(f) == mgr.apply_and(c, b)
    assert restrict(f) == mgr.false
    swap_adjacent(mgr, 0)
    swap_adjacent(mgr, 1)
    assert mgr.current_order() == [mgr.var_of(b), mgr.var_of(c),
                                   mgr.var_of(a)]
    # g is composed and restricted only now, so no memo entry can answer.
    composed = substitute(g)
    restricted = restrict(g)
    assert composed == mgr.apply_xor(c, b)
    assert restricted == b


def test_composer_forgets_results_freed_by_garbage_collection():
    """The composed result is not a root: collection frees its nodes and
    new functions recycle their indices, so a held composer that kept its
    memo table would return a dead or foreign edge."""
    mgr = BddManager()
    a, b, c, d = mgr.add_vars(["a", "b", "c", "d"])
    f = mgr.apply_and(a, b)
    c_xor_d = mgr.apply_xor(c, d)
    for edge in (a, b, c, d, f, c_xor_d):
        mgr.register_root(edge)
    substitute = mgr.composer({mgr.var_of(a): c_xor_d})
    substitute(f)
    mgr.garbage_collect()
    mgr.apply_or(c, d)
    mgr.apply_and(c, d)
    again = substitute(f)
    for bits in range(16):
        env = {mgr.var_of(v): bool(bits >> i & 1)
               for i, v in enumerate((a, b, c, d))}
        assert mgr.evaluate(again, env) == (
            env[mgr.var_of(b)] and env[mgr.var_of(c)] != env[mgr.var_of(d)])


def test_restrictor_memo_is_shared_by_equal_assignments():
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_or(mgr.apply_and(a, b), c)
    expected = mgr.apply_or(b, c)
    first = mgr.restrictor({mgr.var_of(a): True})
    second = mgr.restrictor({mgr.var_of(a): 1})
    assert first(f) == expected
    lookups, hits = mgr.cache_lookups, mgr.cache_hits
    assert second(f) == expected
    assert (mgr.cache_lookups, mgr.cache_hits) == (lookups + 1, hits + 1)


# --------------------------------------------------------------- freed nodes


def freed_edge():
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    for edge in (a, b, c):
        mgr.register_root(edge)
    f = mgr.apply_and(b, c)
    mgr.garbage_collect()
    return mgr, (a, b, c), f


@pytest.mark.parametrize("call", [
    lambda m, a, f: m.ite(f, a, m.false),
    lambda m, a, f: m.ite(a, f, m.false),
    lambda m, a, f: m.ite(a, m.true, f),
    lambda m, a, f: m.ite(a, f, f ^ 1),
    lambda m, a, f: m.apply_or(f ^ 1, a),
    lambda m, a, f: m.vector_compose(f, {m.var_of(a): a ^ 1}),
    lambda m, a, f: m.composer({m.var_of(a): a ^ 1})(f),
    lambda m, a, f: m.restrict(f, {m.var_of(a): True}),
    lambda m, a, f: m.restrictor({m.var_of(a): True})(f),
    lambda m, a, f: m.and_is_false(f, a),
    lambda m, a, f: m.pick_one_and(a, f),
], ids=["ite-f", "ite-g", "ite-h", "ite-xnor", "or-complemented",
        "vector_compose", "composer", "restrict", "restrictor",
        "and_is_false", "pick_one_and"])
def test_a_freed_node_still_raises(call):
    mgr, (a, _, _), f = freed_edge()
    with pytest.raises(BddError, match="freed node"):
        call(mgr, a, f)


# -------------------------------------------------------- the engine's counts

#: row -> (iterations, peak_nodes, classes, substitutions) of ``van_eijk``.
VAN_EIJK_COUNTS = {
    "s208": (8, 962, 80, 86),
    "s420": (23, 5385, 100, 526),
    "s838": (59, 24368, 210, 2782),
    "s1423": (9, 3179, 258, 729),
    "s5378": (3, 11004, 530, 520),
}


def van_eijk_counts(row):
    result = repro.verify(*row_by_name(row).pair())
    assert result.equivalent is True
    return (result.iterations, result.peak_nodes, result.details["classes"],
            result.details["substitutions"])


@pytest.mark.parametrize("row", sorted(VAN_EIJK_COUNTS))
def test_van_eijk_counts(row):
    assert van_eijk_counts(row) == VAN_EIJK_COUNTS[row]


@pytest.mark.parametrize("row", ["s208", "s420", "s1423"])
def test_van_eijk_manager_counters_are_the_reference_kernels(row):
    """The engine on ``ReferenceManager`` reproduces its pin, and every
    manager counter of the run."""
    built = []

    def make(cls):
        def build(*args, **kwargs):
            mgr = cls(*args, **kwargs)
            built.append(mgr)
            return mgr
        return build

    runs = []
    for cls in (BddManager, ReferenceManager):
        built.clear()
        with mock.patch.object(engine, "BddManager", make(cls)):
            runs.append((van_eijk_counts(row), [counters(m) for m in built]))
        assert type(built[0]) is cls
    assert runs[0] == runs[1]
    assert runs[0][0] == VAN_EIJK_COUNTS[row]

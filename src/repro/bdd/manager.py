"""Reduced ordered binary decision diagrams with complement edges.

This module provides :class:`BddManager`, a self-contained ROBDD package in
the style of the Eindhoven/CUDD packages the paper builds on.  Edges are plain
Python integers: ``edge = node_index << 1 | complement_bit``.  Node index 0 is
the constant function ONE, so ``manager.true == 0`` and ``manager.false == 1``.

Canonical form
--------------
The *then* (high) child of every stored node is a regular (uncomplemented)
edge; complementation is pushed onto parent edges and else children.  Under
this rule every Boolean function has exactly one representation, negation is
O(1) (``edge ^ 1``), and a function and its complement share all nodes — which
is what makes the paper's antivalence detection structural.

Variable order
--------------
Nodes store a *variable index* (stable for the lifetime of the manager); the
manager separately maintains a permutation ``level_of_var``/``var_at_level``.
Recursive operations branch on the variable of least level.  The sifting
reorderer in :mod:`repro.bdd.reorder` swaps adjacent levels in place, so all
outstanding edges remain valid across reordering.

Prepared forms
--------------
:meth:`BddManager.composer` and :meth:`BddManager.restrictor` validate, sort
and bound one substitution or assignment once and return ``f -> result``;
:meth:`~BddManager.vector_compose` and :meth:`~BddManager.restrict` are
one-shot wrappers over them.  A caller that applies one map to many
functions (the frame shift of every ν, the cofactor by s0 of every T0 key)
holds one prepared form, so each application pays only for its BDD work.
A prepared form may outlive a reordering or a garbage collection: both
reach :meth:`~BddManager.clear_caches`, which bumps the manager's epoch, and
a prepared form that sees a new epoch re-derives its level bound and
re-fetches its memo table before it recurses.

The recursions of ``ite``, composition, restriction and the ``f ∧ g``
walks read the constants as the literals ``0`` (ONE) and ``1`` (ZERO) and
inline the top-level and cofactor steps; only ``_mk`` and the recursion
itself are calls.
"""

import sys

from ..errors import BddError, NodeLimitExceeded

_TERMINAL_LEVEL = 1 << 60

#: ``_mk`` polls the manager's budget once every this many created nodes.
_POLL_EVERY = 4096

_FREED_NODE = ("edge references a freed node (unregistered root held "
               "across garbage collection?)")


def _identity(f):
    return f


# The recursions descend one frame per BDD level; deep orders need more
# than the interpreter's default of 1000.
if sys.getrecursionlimit() < 100000:
    sys.setrecursionlimit(100000)


class BddManager:
    """A manager owning a shared multi-rooted BDD forest.

    Parameters
    ----------
    node_limit:
        Optional cap on the number of *live* nodes.  Exceeding it raises
        :class:`~repro.errors.NodeLimitExceeded`; the paper imposes the same
        kind of memory limit (100 MB) on its BDD package.
    budget:
        Optional run :class:`~repro.budget.Budget`, polled as nodes are
        created and by sifting, so one long operation cannot outrun it.
    """

    def __init__(self, node_limit=None, budget=None):
        self.node_limit = node_limit
        self.budget = budget
        # Node storage; index 0 is the terminal ONE node.
        self._var = [_TERMINAL_LEVEL]
        self._hi = [0]
        self._lo = [0]
        self._free = []  # recycled node indices
        # Variable order bookkeeping.
        self._level_of_var = []
        self._var_at_level = []
        self._var_names = []
        self._name_to_var = {}
        # unique[var] maps (hi, lo) -> node index.
        self._unique = []
        # Operation caches.
        self._ite_cache = {}
        self._quant_cache = {}
        self._compose_cache = {}  # substitution token -> {node: edge}
        self._restrict_cache = {}  # assignment token -> {edge: edge}
        self._misc_cache = {}
        # Bumped by clear_caches(); prepared forms re-derive on a new epoch.
        self._epoch = 0
        # Statistics.
        self.live_nodes = 1
        self.peak_live_nodes = 1
        self.created_nodes = 1
        self.cache_lookups = 0
        self.cache_hits = 0
        # Registered roots (protected across garbage collection/reordering).
        self._roots = {}
        self._next_root_token = 0

    # ------------------------------------------------------------------
    # Constants and variables
    # ------------------------------------------------------------------

    @property
    def true(self):
        """The constant-1 function."""
        return 0

    @property
    def false(self):
        """The constant-0 function."""
        return 1

    def add_var(self, name=None):
        """Create a fresh variable at the bottom of the order.

        Returns the edge of the positive literal.  ``name`` defaults to
        ``"v<index>"`` and must be unique.
        """
        var = len(self._level_of_var)
        if name is None:
            name = "v{}".format(var)
        if name in self._name_to_var:
            raise BddError("duplicate variable name: {!r}".format(name))
        self._level_of_var.append(len(self._var_at_level))
        self._var_at_level.append(var)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._unique.append({})
        return self._mk(var, self.true, self.false)

    def add_vars(self, names):
        """Create several variables; returns their positive-literal edges."""
        return [self.add_var(name) for name in names]

    @property
    def num_vars(self):
        return len(self._level_of_var)

    def var_edge(self, var):
        """Edge of the positive literal of variable index ``var``."""
        self._check_var(var)
        return self._mk(var, self.true, self.false)

    def var_by_name(self, name):
        try:
            return self._name_to_var[name]
        except KeyError:
            raise BddError("unknown variable name: {!r}".format(name)) from None

    def var_name(self, var):
        self._check_var(var)
        return self._var_names[var]

    def level_of(self, var):
        self._check_var(var)
        return self._level_of_var[var]

    def var_at_level(self, level):
        return self._var_at_level[level]

    def current_order(self):
        """Variable indices from top level to bottom level."""
        return list(self._var_at_level)

    def _check_var(self, var):
        if not 0 <= var < len(self._level_of_var):
            raise BddError("unknown variable index: {}".format(var))

    # ------------------------------------------------------------------
    # Node primitives
    # ------------------------------------------------------------------

    def _mk(self, var, hi, lo):
        """Find-or-create the canonical node for ``ITE(var, hi, lo)``.

        ``hi``/``lo`` must be edges of nodes strictly below ``var``'s level.
        """
        if hi == lo:
            return hi
        if hi & 1:
            # Canonicity: the then-edge must be regular; complement the node.
            return self._mk(var, hi ^ 1, lo ^ 1) ^ 1
        table = self._unique[var]
        key = (hi, lo)
        node = table.get(key)
        if node is not None:
            return node << 1
        if self._free:
            idx = self._free.pop()
            self._var[idx] = var
            self._hi[idx] = hi
            self._lo[idx] = lo
        else:
            idx = len(self._var)
            self._var.append(var)
            self._hi.append(hi)
            self._lo.append(lo)
        table[key] = idx
        self.live_nodes += 1
        self.created_nodes += 1
        if self.live_nodes > self.peak_live_nodes:
            self.peak_live_nodes = self.live_nodes
        if self.node_limit is not None and self.live_nodes > self.node_limit:
            raise NodeLimitExceeded(
                "BDD node limit of {} exceeded".format(self.node_limit)
            )
        if self.budget is not None and not self.created_nodes % _POLL_EVERY:
            self.budget.check()
        return idx << 1

    def is_constant(self, edge):
        return edge >> 1 == 0

    def var_of(self, edge):
        """Variable index of the edge's top node (error on constants)."""
        if self.is_constant(edge):
            raise BddError("constant edge has no variable")
        return self._var[edge >> 1]

    def _top_level(self, edge):
        node = edge >> 1
        if node == 0:
            return _TERMINAL_LEVEL
        var = self._var[node]
        if var < 0:
            raise BddError(_FREED_NODE)
        return self._level_of_var[var]

    def cofactors(self, edge, var):
        """(positive, negative) cofactor of ``edge`` w.r.t. ``var``.

        ``var`` must be at or above the edge's top level for the O(1) case;
        arbitrary variables are handled via :meth:`restrict`.
        """
        node = edge >> 1
        if node != 0 and self._var[node] == var:
            sign = edge & 1
            return self._hi[node] ^ sign, self._lo[node] ^ sign
        if node == 0 or self._level_of_var[self._var[node]] > self._level_of_var[var]:
            return edge, edge
        one = self.restrict(edge, {var: True})
        zero = self.restrict(edge, {var: False})
        return one, zero

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------

    def ite(self, f, g, h):
        """``ITE(f, g, h) = f·g + ¬f·h`` — the universal binary operation."""
        # Terminal cases (ONE is edge 0, ZERO is edge 1).
        if f == 0:
            return g
        if f == 1:
            return h
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        # Reductions using f itself.
        if g == f:
            g = 0
        elif g == f ^ 1:
            g = 1
        if h == f:
            h = 1
        elif h == f ^ 1:
            h = 0
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        if g == h:
            return g
        # Normalize: first argument regular.
        if f & 1:
            f, g, h = f ^ 1, h, g
        # Top levels; f is not constant here, g and h may be.
        var_of = self._var
        level_of = self._level_of_var
        var = var_of[f >> 1]
        if var < 0:
            raise BddError(_FREED_NODE)
        lf = level_of[var]
        node = g >> 1
        if node:
            var = var_of[node]
            if var < 0:
                raise BddError(_FREED_NODE)
            lg = level_of[var]
        else:
            lg = _TERMINAL_LEVEL
        node = h >> 1
        if node:
            var = var_of[node]
            if var < 0:
                raise BddError(_FREED_NODE)
            lh = level_of[var]
        else:
            lh = _TERMINAL_LEVEL
        # Normalize: choose a canonical representative among equivalent
        # triples so the cache hits more often (standard-triple rules).
        # The swapped-in f may be complemented.
        if g == 0:
            if lh < lf:
                f, h, lf, lh = h, f, lh, lf  # f+h is commutative
        elif h == 1:
            if lg < lf:
                f, g, lf, lg = g, f, lg, lf  # f·g is commutative
        elif g == h ^ 1 and lg < lf:
            # f xnor g is commutative
            f, g, h, lf, lg, lh = g, f, f ^ 1, lg, lf, lf
        # Normalize: result sign out (then-branch regular).
        negate = g & 1
        if negate:
            g ^= 1
            h ^= 1
        key = (f, g, h)
        cache = self._ite_cache
        self.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached ^ negate
        top = lf if lf < lg else lg
        if lh < top:
            top = lh
        hi = self._hi
        lo = self._lo
        if lf == top:
            node = f >> 1
            sign = f & 1
            f1 = hi[node] ^ sign
            f0 = lo[node] ^ sign
        else:
            f1 = f0 = f
        if lg == top:
            node = g >> 1  # g is regular
            g1 = hi[node]
            g0 = lo[node]
        else:
            g1 = g0 = g
        if lh == top:
            node = h >> 1
            sign = h & 1
            h1 = hi[node] ^ sign
            h0 = lo[node] ^ sign
        else:
            h1 = h0 = h
        var = self._var_at_level[top]
        t = self.ite(f1, g1, h1)
        e = self.ite(f0, g0, h0)
        result = self._mk(var, t, e)
        cache[key] = result
        return result ^ negate

    def _fast_cofactors(self, edge, var):
        node = edge >> 1
        if node != 0 and self._var[node] == var:
            sign = edge & 1
            return self._hi[node] ^ sign, self._lo[node] ^ sign
        return edge, edge

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    def apply_not(self, f):
        return f ^ 1

    def apply_and(self, f, g):
        return self.ite(f, g, self.false)

    def apply_or(self, f, g):
        return self.ite(f, self.true, g)

    def apply_xor(self, f, g):
        return self.ite(f, g ^ 1, g)

    def apply_xnor(self, f, g):
        return self.ite(f, g, g ^ 1)

    def apply_nor(self, f, g):
        return self.apply_or(f, g) ^ 1

    def apply_implies(self, f, g):
        return self.ite(f, g, self.true)

    def and_is_false(self, f, g):
        """Decide ``f ∧ g == 0`` without building the conjunction.

        The inner loop of the correspondence refinement asks exactly this
        question (``Q ∧ (ν_m ⊕ ν_n) == 0``); deciding it by traversal avoids
        materializing conjunction nodes that are discarded immediately.
        """
        cache = self._misc_cache
        var_of = self._var
        hi = self._hi
        lo = self._lo
        level_of = self._level_of_var

        def rec(a, b):
            if a == 1 or b == 1:
                return True
            if a == b ^ 1:
                return True
            if a == 0 or b == 0 or a == b:
                return False
            if a > b:
                a, b = b, a
            key = ("AIF", a, b)
            cached = cache.get(key)
            if cached is not None:
                return cached
            # Both sides are non-constant: cofactor the top one(s).
            node_a = a >> 1
            node_b = b >> 1
            var_a = var_of[node_a]
            var_b = var_of[node_b]
            if var_a < 0 or var_b < 0:
                raise BddError(_FREED_NODE)
            level_a = level_of[var_a]
            level_b = level_of[var_b]
            if level_a <= level_b:
                sign = a & 1
                a1 = hi[node_a] ^ sign
                a0 = lo[node_a] ^ sign
            else:
                a1 = a0 = a
            if level_b <= level_a:
                sign = b & 1
                b1 = hi[node_b] ^ sign
                b0 = lo[node_b] ^ sign
            else:
                b1 = b0 = b
            result = rec(a1, b1) and rec(a0, b0)
            cache[key] = result
            return result

        return rec(f, g)

    def and_many(self, edges):
        """Conjunction of an iterable of edges (balanced reduction)."""
        items = list(edges)
        if not items:
            return self.true
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                nxt.append(self.apply_and(items[i], items[i + 1]))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def or_many(self, edges):
        """Disjunction of an iterable of edges (balanced reduction)."""
        return self.and_many(e ^ 1 for e in edges) ^ 1

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def exists(self, f, variables):
        """Existential quantification over an iterable of variable indices."""
        varset = frozenset(variables)
        if not varset:
            return f
        for var in varset:
            self._check_var(var)
        max_level = max(self._level_of_var[v] for v in varset)
        return self._exists_rec(f, varset, max_level)

    def forall(self, f, variables):
        """Universal quantification: ``∀v.f = ¬∃v.¬f``."""
        return self.exists(f ^ 1, variables) ^ 1

    def _exists_rec(self, f, varset, max_level):
        if self.is_constant(f):
            return f
        level = self._top_level(f)
        if level > max_level:
            return f
        key = (f, varset)
        self.cache_lookups += 1
        cached = self._quant_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        var = self._var_at_level[level]
        hi, lo = self._fast_cofactors(f, var)
        t = self._exists_rec(hi, varset, max_level)
        if var in varset:
            if t == self.true:
                result = self.true
            else:
                e = self._exists_rec(lo, varset, max_level)
                result = self.apply_or(t, e)
        else:
            e = self._exists_rec(lo, varset, max_level)
            result = self._mk(var, t, e)
        self._quant_cache[key] = result
        return result

    def and_exists(self, f, g, variables):
        """Relational product ``∃vars. f ∧ g`` without building ``f ∧ g``."""
        varset = frozenset(variables)
        for var in varset:
            self._check_var(var)
        if not varset:
            return self.apply_and(f, g)
        max_level = max(self._level_of_var[v] for v in varset)
        return self._and_exists_rec(f, g, varset, max_level)

    def _and_exists_rec(self, f, g, varset, max_level):
        if f == self.false or g == self.false:
            return self.false
        if f == self.true and g == self.true:
            return self.true
        if f == (g ^ 1):
            return self.false
        if f == self.true or f == g:
            return self._exists_rec(g, varset, max_level)
        if g == self.true:
            return self._exists_rec(f, varset, max_level)
        level = min(self._top_level(f), self._top_level(g))
        if level > max_level:
            return self.apply_and(f, g)
        if f > g:
            f, g = g, f
        key = (f, g, varset)
        self.cache_lookups += 1
        cached = self._misc_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        var = self._var_at_level[level]
        f1, f0 = self._fast_cofactors(f, var)
        g1, g0 = self._fast_cofactors(g, var)
        if var in varset:
            t = self._and_exists_rec(f1, g1, varset, max_level)
            if t == self.true:
                result = self.true
            else:
                e = self._and_exists_rec(f0, g0, varset, max_level)
                result = self.apply_or(t, e)
        else:
            t = self._and_exists_rec(f1, g1, varset, max_level)
            e = self._and_exists_rec(f0, g0, varset, max_level)
            result = self._mk(var, t, e)
        self._misc_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Substitution / restriction
    # ------------------------------------------------------------------

    def restrict(self, f, assignment):
        """Cofactor ``f`` by a partial assignment ``{var: bool}``."""
        return self.restrictor(assignment)(f)

    def restrictor(self, assignment):
        """Prepared :meth:`restrict`: returns ``f -> f|assignment``, with
        the assignment validated and sorted once for every ``f``."""
        if not assignment:
            return _identity
        fixed = {}
        for var, value in assignment.items():
            self._check_var(var)
            fixed[var] = bool(value)
        return self._prepared(fixed, self._restrict_cache, self._restrict_rec)

    def _restrict_rec(self, f, fixed, max_level, cache):
        node = f >> 1
        if not node:
            return f
        var = self._var[node]
        if var < 0:
            raise BddError(_FREED_NODE)
        if self._level_of_var[var] > max_level:
            return f
        self.cache_lookups += 1
        cached = cache.get(f)
        if cached is not None:
            self.cache_hits += 1
            return cached
        sign = f & 1
        hi = self._hi[node] ^ sign
        lo = self._lo[node] ^ sign
        value = fixed.get(var)
        if value is None:
            t = self._restrict_rec(hi, fixed, max_level, cache)
            e = self._restrict_rec(lo, fixed, max_level, cache)
            result = self._mk(var, t, e)
        else:
            result = self._restrict_rec(hi if value else lo, fixed, max_level,
                                        cache)
        cache[f] = result
        return result

    def compose(self, f, var, g):
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        return self.vector_compose(f, {var: g})

    def vector_compose(self, f, substitution):
        """Simultaneously substitute ``{var: edge}`` into ``f``.

        The substitution is *simultaneous*: variables appearing inside the
        replacement functions are not substituted again.  This is exactly the
        frame-shift operation the paper's ν functions need:
        ``ν_v = f_v[s := δ(s, x), x := x']``.
        """
        return self.composer(substitution)(f)

    def composer(self, substitution):
        """Prepared :meth:`vector_compose`: ``f -> f[substitution]``,
        validated and sorted once for every ``f``.

        The edges of ``substitution`` must stay valid while the composer is
        used (register them as roots across garbage collection).
        """
        if not substitution:
            return _identity
        subst = {}
        for var, edge in substitution.items():
            self._check_var(var)
            subst[var] = edge
        return self._prepared(subst, self._compose_cache, self._compose_rec)

    def _prepared(self, mapping, tables, rec):
        """``f -> rec(f, mapping, max_level, table)`` for a validated
        ``{var: value}`` map.

        Equal maps share one memo table in ``tables``.  The table and the
        deepest level of the map are fetched again whenever the manager's
        epoch has moved on (reordering changes levels; garbage collection
        frees the nodes the table is keyed by).
        """
        token = tuple(sorted(mapping.items()))
        level_of = self._level_of_var
        epoch = table = max_level = None

        def apply(f):
            nonlocal epoch, table, max_level
            if epoch != self._epoch:
                epoch = self._epoch
                table = tables.setdefault(token, {})
                max_level = max(level_of[var] for var in mapping)
            return rec(f, mapping, max_level, table)

        return apply

    def _compose_rec(self, f, subst, max_level, cache):
        node = f >> 1
        if not node:
            return f
        var = self._var[node]
        if var < 0:
            raise BddError(_FREED_NODE)
        if self._level_of_var[var] > max_level:
            return f
        cached = cache.get(node)
        if cached is not None:
            return cached ^ (f & 1)
        t = self._compose_rec(self._hi[node], subst, max_level, cache)
        e = self._compose_rec(self._lo[node], subst, max_level, cache)
        replacement = subst.get(var)
        if replacement is None:
            replacement = self._mk(var, 0, 1)
        result = self.ite(replacement, t, e)
        cache[node] = result
        return result ^ (f & 1)

    def constrain(self, f, care):
        """Coudert-Madre generalized cofactor ``f ↓ care``.

        Semantics: ``(f ↓ care)(x) = f(μ(x))`` where μ maps every point to
        the nearest (in variable order) point of the care set.  Key
        property used by the correspondence engine: two functions agree on
        every care-set point **iff** their generalized cofactors are the
        same BDD — so "equivalence under the don't-care complement of Q"
        becomes a hashable canonical form.
        """
        if care == self.false:
            raise BddError("constrain by the empty care set")
        return self._constrain_rec(f, care)

    def _constrain_rec(self, f, care):
        if care == self.true or self.is_constant(f):
            return f
        if f == care:
            return self.true
        if f == (care ^ 1):
            return self.false
        key = ("CON", f, care)
        self.cache_lookups += 1
        cached = self._misc_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        level = min(self._top_level(f), self._top_level(care))
        var = self._var_at_level[level]
        f1, f0 = self._fast_cofactors(f, var)
        c1, c0 = self._fast_cofactors(care, var)
        if c1 == self.false:
            result = self._constrain_rec(f0, c0)
        elif c0 == self.false:
            result = self._constrain_rec(f1, c1)
        else:
            result = self._mk(
                var,
                self._constrain_rec(f1, c1),
                self._constrain_rec(f0, c0),
            )
        self._misc_cache[key] = result
        return result

    def rename_vars(self, f, mapping):
        """Substitute variables for variables (``{old_var: new_var}``)."""
        return self.vector_compose(
            f, {old: self.var_edge(new) for old, new in mapping.items()}
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def evaluate(self, f, assignment):
        """Evaluate ``f`` under a total assignment ``{var: bool}``."""
        sign = f & 1
        node = f >> 1
        while node != 0:
            var = self._var[node]
            try:
                value = assignment[var]
            except KeyError:
                raise BddError(
                    "assignment misses variable {!r}".format(self._var_names[var])
                ) from None
            edge = self._hi[node] if value else self._lo[node]
            sign ^= edge & 1
            node = edge >> 1
        return sign == 0

    def support(self, f):
        """Set of variable indices ``f`` depends on."""
        seen = set()
        result = set()
        stack = [f >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._hi[node] >> 1)
            stack.append(self._lo[node] >> 1)
        return result

    def dag_size(self, edges):
        """Number of distinct nodes reachable from the given edges
        (the terminal node included)."""
        if isinstance(edges, int):
            edges = [edges]
        seen = {0}
        stack = [e >> 1 for e in edges]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.append(self._hi[node] >> 1)
            stack.append(self._lo[node] >> 1)
        return len(seen)

    def sat_count(self, f, nvars=None):
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the number of manager variables and must not be
        smaller than it; extra variables double the count per variable.
        """
        if nvars is None:
            nvars = self.num_vars
        if nvars < self.num_vars:
            raise BddError("nvars must cover all manager variables")
        cache = {}

        def count(edge):
            # Returns model count over variables strictly below the edge's
            # top level, normalized afterwards.
            sign = edge & 1
            node = edge >> 1
            if node == 0:
                return 0 if sign else 1
            key = (node, sign)
            val = cache.get(key)
            if val is not None:
                return val
            var = self._var[node]
            hi = self._hi[node] ^ sign
            lo = self._lo[node] ^ sign
            level = self._level_of_var[var]
            c_hi = count(hi) * 2 ** (self._gap(level, hi) - 1)
            c_lo = count(lo) * 2 ** (self._gap(level, lo) - 1)
            val = c_hi + c_lo
            cache[key] = val
            return val

        top_gap = self._top_level(f)
        if top_gap > self.num_vars:
            top_gap = self.num_vars
        scale = 2 ** (nvars - self.num_vars)
        return count(f) * 2 ** top_gap * scale

    def _gap(self, level, edge):
        """Number of levels spanned between ``level`` and the edge's top."""
        target = self._top_level(edge)
        if target >= self.num_vars:
            target = self.num_vars
        return target - level

    def pick_one(self, f):
        """One satisfying assignment ``{var: bool}`` or ``None`` if f == 0.

        Unmentioned variables are don't-cares for the returned assignment.
        """
        if f == 1:
            return None
        assignment = {}
        edge = f
        while edge >> 1:
            node = edge >> 1
            sign = edge & 1
            var = self._var[node]
            hi = self._hi[node] ^ sign
            lo = self._lo[node] ^ sign
            if hi != 1:
                assignment[var] = True
                edge = hi
            else:
                assignment[var] = False
                edge = lo
        return assignment

    def pick_one_and(self, f, g):
        """One assignment satisfying ``f ∧ g``, or ``None`` if empty.

        The witness-extracting dual of :meth:`and_is_false`: the conjunction
        is never materialized, and the traversal shares (and reuses) the
        emptiness cache, so a preceding ``and_is_false(f, g) == False`` makes
        the witness search skip every branch already known to be empty.
        Unmentioned variables are don't-cares, as in :meth:`pick_one`.
        """
        cache = self._misc_cache
        var_of = self._var
        hi = self._hi
        lo = self._lo
        level_of = self._level_of_var
        assignment = {}

        def rec(a, b):
            if a == 1 or b == 1:
                return False
            if a == 0 and b == 0:
                return True
            if a == b ^ 1:
                return False
            if a == b or a == 0 or b == 0:
                # Nonempty, one-sided: any witness of the non-constant side
                # works.  Its support is disjoint from the variables decided
                # so far (they were cofactored away above this level).
                witness = self.pick_one(b if a == 0 else a)
                assignment.update(witness)
                return True
            key = ("AIF", a, b) if a <= b else ("AIF", b, a)
            if cache.get(key) is True:
                return False
            node_a = a >> 1
            node_b = b >> 1
            var_a = var_of[node_a]
            var_b = var_of[node_b]
            if var_a < 0 or var_b < 0:
                raise BddError(_FREED_NODE)
            level_a = level_of[var_a]
            level_b = level_of[var_b]
            if level_a <= level_b:
                var = var_a
                sign = a & 1
                a1 = hi[node_a] ^ sign
                a0 = lo[node_a] ^ sign
            else:
                a1 = a0 = a
            if level_b <= level_a:
                var = var_b
                sign = b & 1
                b1 = hi[node_b] ^ sign
                b0 = lo[node_b] ^ sign
            else:
                b1 = b0 = b
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

    def cube(self, assignment):
        """Conjunction of literals from ``{var: bool}``."""
        result = self.true
        for var, value in sorted(
            assignment.items(), key=lambda item: -self._level_of_var[item[0]]
        ):
            lit = self.var_edge(var)
            if not value:
                lit ^= 1
            result = self.apply_and(lit, result)
        return result

    # ------------------------------------------------------------------
    # Roots, garbage collection, cache control
    # ------------------------------------------------------------------

    def register_root(self, edge):
        """Protect ``edge`` across garbage collection; returns a token."""
        token = self._next_root_token
        self._next_root_token += 1
        self._roots[token] = edge
        return token

    def update_root(self, token, edge):
        if token not in self._roots:
            raise BddError("unknown root token: {}".format(token))
        self._roots[token] = edge

    def release_root(self, token):
        self._roots.pop(token, None)

    def root_edges(self):
        return list(self._roots.values())

    def clear_caches(self):
        """Drop every memo table and start a new epoch (see the module
        docstring, "Prepared forms")."""
        self._ite_cache.clear()
        self._quant_cache.clear()
        self._compose_cache.clear()
        self._restrict_cache.clear()
        self._misc_cache.clear()
        self._epoch += 1

    def garbage_collect(self, extra_roots=()):
        """Sweep nodes unreachable from registered roots + ``extra_roots``.

        Outstanding edges that were *not* protected become invalid.  Returns
        the number of nodes freed.
        """
        live = {0}
        stack = [e >> 1 for e in self.root_edges()]
        stack.extend(e >> 1 for e in extra_roots)
        while stack:
            node = stack.pop()
            if node in live:
                continue
            live.add(node)
            stack.append(self._hi[node] >> 1)
            stack.append(self._lo[node] >> 1)
        freed = 0
        for var, table in enumerate(self._unique):
            dead = [key for key, node in table.items() if node not in live]
            for key in dead:
                idx = table.pop(key)
                self._free.append(idx)
                self._var[idx] = -1
                freed += 1
        self.live_nodes -= freed
        self.clear_caches()
        return freed

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Validate canonical-form invariants (test/debug helper)."""
        for var, table in enumerate(self._unique):
            for (hi, lo), node in table.items():
                if self._var[node] != var:
                    raise BddError("unique table var mismatch at node %d" % node)
                if self._hi[node] != hi or self._lo[node] != lo:
                    raise BddError("unique table child mismatch at node %d" % node)
                if hi & 1:
                    raise BddError("complemented then-edge at node %d" % node)
                if hi == lo:
                    raise BddError("redundant node %d" % node)
                level = self._level_of_var[var]
                for child in (hi, lo):
                    if self._top_level(child) <= level:
                        raise BddError("order violation at node %d" % node)
        return True

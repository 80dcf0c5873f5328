"""Dynamic variable reordering by sifting (Rudell's algorithm).

The paper's BDD package uses dynamic variable ordering to keep the
correspondence-condition and next-state BDDs small; this module provides the
same capability for :class:`~repro.bdd.manager.BddManager`.

The central primitive is an *in-place* swap of two adjacent levels: nodes are
mutated rather than replaced, so every externally held edge stays valid across
reordering.  Callers must register all edges they hold with
:meth:`BddManager.register_root` before sifting — unregistered nodes are
treated as garbage and may be collected.

Correctness of the in-place swap with complement edges rests on three
invariants (see the manager's canonical form):

* the positive cofactor of a node's *then* child is always a regular edge, so
  the rebuilt then child is regular;
* a rebuilt node always keeps at least one child at the swapped-down variable,
  while pre-existing nodes of the swapped-up variable never do, so unique
  table insertion cannot collide;
* two distinct nodes denote distinct functions before the swap and functions
  are preserved, so two rebuilt nodes cannot collide either.
"""


def _compute_refcounts(manager):
    """Reference counts from unique-table parents and registered roots."""
    rc = [0] * len(manager._var)
    for table in manager._unique:
        for (hi, lo) in table:
            rc[hi >> 1] += 1
            rc[lo >> 1] += 1
    for edge in manager.root_edges():
        rc[edge >> 1] += 1
    return rc


class _Sifter:
    """Holds the mutable state of one sifting pass."""

    def __init__(self, manager):
        self.m = manager
        manager.clear_caches()
        manager.garbage_collect()
        self.rc = _compute_refcounts(manager)
        self.deferred_free = []

    # -- refcounted node management ------------------------------------

    def _mk_rc(self, var, hi, lo):
        """Like ``BddManager._mk`` but maintains reference counts.

        The returned edge is *not* referenced on behalf of the caller; the
        caller increments it when storing it into a node.  A freshly created
        node does reference its own children.
        """
        m = self.m
        if hi == lo:
            return hi
        if hi & 1:
            return self._mk_rc(var, hi ^ 1, lo ^ 1) ^ 1
        table = m._unique[var]
        key = (hi, lo)
        node = table.get(key)
        if node is not None:
            return node << 1
        idx = len(m._var)
        m._var.append(var)
        m._hi.append(hi)
        m._lo.append(lo)
        self.rc.append(0)
        table[key] = idx
        self._inc(hi)
        self._inc(lo)
        m.live_nodes += 1
        m.created_nodes += 1
        if m.live_nodes > m.peak_live_nodes:
            m.peak_live_nodes = m.live_nodes
        return idx << 1

    def _inc(self, edge):
        node = edge >> 1
        if node:
            self.rc[node] += 1

    def _dec(self, edge):
        node = edge >> 1
        if not node:
            return
        self.rc[node] -= 1
        if self.rc[node] == 0:
            m = self.m
            var = m._var[node]
            hi = m._hi[node]
            lo = m._lo[node]
            m._unique[var].pop((hi, lo), None)
            m._var[node] = -1
            m.live_nodes -= 1
            self.deferred_free.append(node)
            self._dec(hi)
            self._dec(lo)

    # -- the adjacent-level swap ---------------------------------------

    def swap(self, level):
        """Swap the variables at ``level`` and ``level + 1`` in place."""
        m = self.m
        up = m._var_at_level[level]
        down = m._var_at_level[level + 1]
        table_up = m._unique[up]
        var_arr, hi_arr, lo_arr = m._var, m._hi, m._lo
        rebuild = []
        for (t, e), node in list(table_up.items()):
            t_node = t >> 1
            e_node = e >> 1
            if (t_node and var_arr[t_node] == down) or (
                e_node and var_arr[e_node] == down
            ):
                rebuild.append(node)
                del table_up[(t, e)]
        m._var_at_level[level] = down
        m._var_at_level[level + 1] = up
        m._level_of_var[up] = level + 1
        m._level_of_var[down] = level
        table_down = m._unique[down]
        for node in rebuild:
            t = hi_arr[node]
            e = lo_arr[node]
            t_node = t >> 1
            if t_node and var_arr[t_node] == down:
                t1, t0 = hi_arr[t_node], lo_arr[t_node]
            else:
                t1 = t0 = t
            e_node = e >> 1
            if e_node and var_arr[e_node] == down:
                sign = e & 1
                e1, e0 = hi_arr[e_node] ^ sign, lo_arr[e_node] ^ sign
            else:
                e1 = e0 = e
            new_hi = self._mk_rc(up, t1, e1)
            new_lo = self._mk_rc(up, t0, e0)
            # Reference the new children before dropping the old ones, so a
            # shared subgraph cannot be collected in between.
            self._inc(new_hi)
            self._inc(new_lo)
            self._dec(t)
            self._dec(e)
            var_arr[node] = down
            hi_arr[node] = new_hi
            lo_arr[node] = new_lo
            table_down[(new_hi, new_lo)] = node

    def finish(self):
        self.m._free.extend(self.deferred_free)
        self.deferred_free = []
        self.m.clear_caches()


def swap_adjacent(manager, level):
    """Swap two adjacent levels in place (exposed for tests)."""
    sifter = _Sifter(manager)
    sifter.swap(level)
    sifter.finish()


def sift(manager, max_growth=1.2, max_vars=None):
    """Run one sifting pass; returns (nodes_before, nodes_after).

    Each variable (largest unique subtable first) is moved through the whole
    order by adjacent swaps and parked at the position that minimized the
    total number of live nodes.  Movement in one direction is abandoned early
    when the size exceeds ``max_growth`` times the best size seen.  The
    manager's budget is polled before each variable; a spent one stops the
    pass there with every edge still valid.
    """
    sifter = _Sifter(manager)
    m = manager
    before = m.live_nodes
    order = sorted(range(m.num_vars), key=lambda v: -len(m._unique[v]))
    if max_vars is not None:
        order = order[:max_vars]
    for var in order:
        if m.budget is not None:
            m.budget.check()
        if len(m._unique[var]) <= 1:
            continue
        best_size = m.live_nodes
        best_pos = m._level_of_var[var]
        start = best_pos
        bottom = m.num_vars - 1
        # Phase 1: sift towards the nearer end first.
        go_down_first = (bottom - start) <= start
        if go_down_first:
            phases = [(+1, bottom), (-1, 0)]
        else:
            phases = [(-1, 0), (+1, bottom)]
        for direction, limit in phases:
            pos = m._level_of_var[var]
            while pos != limit:
                if direction > 0:
                    sifter.swap(pos)
                    pos += 1
                else:
                    sifter.swap(pos - 1)
                    pos -= 1
                size = m.live_nodes
                if size < best_size:
                    best_size = size
                    best_pos = pos
                elif size > best_size * max_growth:
                    break
        # Phase 2: park at the best position seen.
        pos = m._level_of_var[var]
        while pos < best_pos:
            sifter.swap(pos)
            pos += 1
        while pos > best_pos:
            sifter.swap(pos - 1)
            pos -= 1
    sifter.finish()
    return before, m.live_nodes


def maybe_sift(manager, threshold, max_growth=1.2):
    """Sift when the live node count exceeds ``threshold``.

    Returns True when a reordering pass ran.  Doubles as the paper's
    "dynamic variable ordering is used to control the BDD variable ordering":
    call it at safe points (all held edges registered as roots).
    """
    if manager.live_nodes <= threshold:
        return False
    sift(manager, max_growth=max_growth)
    return True

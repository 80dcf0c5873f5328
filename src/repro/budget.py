"""One run's time limit and cancellation hook.

:func:`repro.verify` builds one :class:`Budget` per call and hands it to
the engine, and every :class:`~repro.sat.solver.Solver` and
:class:`~repro.bdd.BddManager` the run creates.  They all poll
:meth:`Budget.check`: engines at their natural boundaries (queries,
fixed-point iterations, BMC depths, BFS rings), the solver every few
hundred conflicts and decisions, the BDD manager every few thousand
created nodes.  Nested runs — retiming rounds, both FRAIG
reductions, a k-induction fallback — share the one object, so the limit
covers the whole call.  Every engine ends a spent budget the same way: an
inconclusive result whose ``details["aborted"]`` is the exception message.
"""

import time

from .errors import ResourceBudgetExceeded


class Budget:
    """A wall-clock limit counted from construction, and a cancel hook.

    ``time_limit`` is in seconds; ``cancel_check()`` returning true stops
    the run.  Either may be ``None``; ``Budget()`` never runs out.
    """

    def __init__(self, time_limit=None, cancel_check=None):
        self.deadline = (None if time_limit is None
                         else time.monotonic() + time_limit)
        self.cancel_check = cancel_check

    def check(self):
        """Raise :class:`~repro.errors.ResourceBudgetExceeded` once the run
        is out of time or cancelled."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceBudgetExceeded("time budget exhausted")
        if self.cancel_check is not None and self.cancel_check():
            raise ResourceBudgetExceeded("cancelled")

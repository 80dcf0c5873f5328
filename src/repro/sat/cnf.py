"""CNF formula container with DIMACS serialization.

Literals follow the DIMACS convention: variables are positive integers,
negative integers are negated literals.  The container is solver-agnostic.
"""

from ..errors import SatError


class Cnf:
    """A CNF formula: a variable counter plus a list of clauses."""

    def __init__(self, num_vars=0):
        self.num_vars = num_vars
        self.clauses = []

    def new_var(self):
        """Allocate a fresh variable; returns its (positive) index."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count):
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals):
        """Add a clause (a non-empty iterable of DIMACS literals, each a
        nonzero ``int``, not a ``bool``, over allocated variables)."""
        clause = list(literals)
        num_vars = self.num_vars
        for lit in clause:
            if type(lit) is not int or not lit:
                raise SatError("bad literal: {!r}".format(lit))
            if not -num_vars <= lit <= num_vars:
                raise SatError(
                    "literal {} references unallocated variable".format(lit)
                )
        if not clause:
            raise SatError("empty clause added (formula trivially UNSAT)")
        self.clauses.append(clause)

    def extend(self, other):
        """Append another formula's clauses (variables must be pre-merged)."""
        if other.num_vars > self.num_vars:
            self.num_vars = other.num_vars
        self.clauses.extend(list(c) for c in other.clauses)

    def to_dimacs(self):
        lines = ["p cnf {} {}".format(self.num_vars, len(self.clauses))]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text):
        cnf = None
        pending = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise SatError("bad DIMACS header: {!r}".format(line))
                cnf = cls(int(parts[2]))
                continue
            if cnf is None:
                raise SatError("clause before DIMACS header")
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if cnf is None:
            raise SatError("missing DIMACS header")
        if pending:
            cnf.add_clause(pending)
        return cnf

    def __len__(self):
        return len(self.clauses)

    def __repr__(self):
        return "Cnf({} vars, {} clauses)".format(self.num_vars, len(self.clauses))

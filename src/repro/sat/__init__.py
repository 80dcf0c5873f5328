"""A self-contained CDCL SAT solver with circuit (Tseitin) encoding."""

from .cnf import Cnf
from .solver import Solver, luby
from .tseitin import TseitinEncoder

__all__ = ["Cnf", "Solver", "TseitinEncoder", "luby"]

"""Sequential gate-level netlists: IR, file formats, simulation, analysis."""

from .circuit import Circuit, Gate, GateType, Register, eval_gate
from .product import ProductMachine, build_product, IMPL_PREFIX, SPEC_PREFIX
from .simulate import (
    CompiledSim,
    SequentialSimulator,
    bit_parallel_eval,
    make_sim,
    next_state,
    single_eval,
    ternary_eval,
    tv_const,
    x_initialized_fixpoint,
)
from .strash import strash
from .bddnet import build_bdds, gate_bdd
from .unroll import unroll
from . import aig, bench, blif, cones, stats, vcd, verilog

__all__ = [
    "Circuit",
    "Gate",
    "GateType",
    "Register",
    "eval_gate",
    "ProductMachine",
    "build_product",
    "SPEC_PREFIX",
    "IMPL_PREFIX",
    "CompiledSim",
    "make_sim",
    "SequentialSimulator",
    "bit_parallel_eval",
    "next_state",
    "single_eval",
    "ternary_eval",
    "tv_const",
    "x_initialized_fixpoint",
    "strash",
    "unroll",
    "build_bdds",
    "gate_bdd",
    "aig",
    "bench",
    "blif",
    "cones",
    "stats",
    "vcd",
    "verilog",
]

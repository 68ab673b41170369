"""Complex-gate logic synthesis (paper, Section 3.2).

Implements each non-input signal as a single atomic complex gate computing
its minimized next-state function — the architecture for which the paper
quotes the classic result: *any circuit implementing the next-state
function of each signal with only one atomic complex gate is speed
independent*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..boolmin.cube import Cube
from ..boolmin.expr import from_cubes
from ..errors import CSCError
from ..stg.stg import STG
from ..ts.state_graph import StateGraph, build_state_graph
from .netlist import Gate, Netlist
from .nextstate import NextStateFunction, derive_all_next_state_functions


def synthesize_complex_gates(sg_or_stg, name: Optional[str] = None) -> Netlist:
    """Synthesize a complex-gate netlist from an STG or a prebuilt SG.

    Raises :class:`~repro.errors.CSCError` if the specification violates
    complete state coding (resolve with
    :func:`repro.synth.csc.resolve_csc` first).
    """
    if isinstance(sg_or_stg, STG):
        sg = build_state_graph(sg_or_stg)
    else:
        sg = sg_or_stg
    return _complex_gates(sg, name or (sg.stg.name + "_cg"))[0]


def _complex_gates(sg: StateGraph, name: str) -> Tuple[
        Netlist, Dict[str, NextStateFunction], Dict[str, List[Cube]]]:
    """The complex-gate netlist of ``sg`` together with the next-state
    functions and minimized covers it was built from (each function is
    derived and minimized once), for callers that go on to factor them."""
    fns = derive_all_next_state_functions(sg)
    covers = {signal: fn.minimized_cubes() for signal, fn in fns.items()}
    netlist = Netlist(name, inputs=sg.stg.inputs)
    for signal in sorted(fns):
        netlist.add(Gate.comb(signal, from_cubes(covers[signal],
                                                 fns[signal].variables)))
    netlist.validate()
    return netlist, fns, covers


def equations(sg_or_stg) -> Dict[str, str]:
    """Convenience: signal -> minimized equation string (eqn style)."""
    netlist = synthesize_complex_gates(sg_or_stg)
    return {out: str(g.expr) for out, g in netlist.gates.items()}

"""Differential tests: the bit-parallel synthesis kernels against their
scalar reference implementations.

Prime implicants are generated on minterm bitsets (one int per don't-care
mask), and the decomposition search matches candidate gates on truth
columns (one int per signal over the states of the state graph).  The
references below are the scalar algorithms they replaced: the tabular
merge over a set of ``(value, mask)`` pairs, and a search that evaluates
every candidate ``BoolExpr`` on a per-state dictionary environment.
Prime lists, ``minimize`` covers, dynamic-hazard-free primes, decomposed
netlists and ``SynthesisError`` texts must be equal.
"""

import itertools
import random
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolmin import (
    And,
    BoolExpr,
    InputTransition,
    Not,
    Or,
    Var,
    dhf_prime_implicants,
    espresso,
    minimize,
    prime_implicants,
)
from repro.boolmin import hazardfree, quine_mccluskey
from repro import obs
from repro.budgets import DECOMPOSE_STATE_BOUND
from repro.errors import ModelError, ReproError, SynthesisError
from repro.stg import (
    ALL_EXAMPLES,
    muller_pipeline,
    parallel_handshakes,
    sequencer,
    vme_read_csc,
)
from repro.synth import derive_all_next_state_functions, synthesize_complex_gates
from repro.synth.netlist import Gate, Netlist
from repro.tech import decompose
from repro.tech.decompose import (
    _candidate_exprs,
    _expr_literals,
    _literals,
    _truth_column,
    algebraic_divisors,
)
from repro.ts import build_state_graph
from repro.verify import verify_circuit


# --------------------------------------------------------------------- #
# reference prime generation: the tabular merge on (value, mask) pairs
# --------------------------------------------------------------------- #

def reference_primes(onset, dcset, n: int) -> List[Tuple[int, int]]:
    current = {(m, 0) for m in set(onset) | set(dcset)}
    primes = set()
    while current:
        merged, used = set(), set()
        by_mask: Dict[int, List[Tuple[int, int]]] = {}
        for imp in current:
            by_mask.setdefault(imp[1], []).append(imp)
        for mask, group in by_mask.items():
            values = {v for v, _ in group}
            for v, _ in group:
                for bit in range(n):
                    b = 1 << bit
                    if mask & b:
                        continue
                    if v ^ b in values and (v & b) == 0:
                        merged.add((v, mask | b))
                        used.add((v, mask))
                        used.add((v ^ b, mask))
        primes.update(current - used)
        current = merged
    return sorted(primes)


@st.composite
def functions(draw, max_n=10):
    """(onset, dcset, n) with n <= max_n, including empty ON-sets, ON ∪ DC
    = universe and overlapping ON/DC sets."""
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    universe = list(range(1 << n))
    shape = draw(st.sampled_from(["random", "empty_on", "universe", "overlap"]))
    density = draw(st.sampled_from([0.02, 0.2, 0.5]))
    onset = [m for m in universe if rng.random() < density]
    dcset = [m for m in universe if rng.random() < density]
    if shape == "empty_on":
        onset = []
    elif shape == "universe":
        dcset = [m for m in universe if m not in set(onset)]
    elif shape == "overlap":
        dcset = sorted(set(dcset) | set(onset[::2]))
    return onset, dcset, n


@given(functions())
@settings(max_examples=150, deadline=None)
def test_primes_match_reference(function):
    onset, dcset, n = function
    assert prime_implicants(onset, dcset, n) == reference_primes(onset, dcset, n)


@given(functions(max_n=8))
@settings(max_examples=80, deadline=None)
def test_minimize_matches_reference_primes(function):
    onset, dcset, n = function
    cover = minimize(onset, dcset, n)
    with mock.patch.object(quine_mccluskey, "prime_implicants", reference_primes):
        assert minimize(onset, dcset, n) == cover


@st.composite
def transition_specs(draw, n=4):
    """Random monotonic input transitions over n variables."""
    transitions = []
    for _ in range(draw(st.integers(1, 5))):
        start = tuple(draw(st.sampled_from([0, 1])) for _ in range(n))
        flips = draw(st.sets(st.integers(0, n - 1), max_size=n))
        end = tuple(1 - v if i in flips else v for i, v in enumerate(start))
        f_start = draw(st.sampled_from([0, 1]))
        f_end = draw(st.sampled_from([0, 1])) if flips else f_start
        transitions.append(InputTransition(start, end, f_start, f_end))
    return transitions


@given(transition_specs())
@settings(max_examples=120, deadline=None)
def test_dhf_primes_match_reference_primes(transitions):
    try:
        primes = dhf_prime_implicants(transitions, 4)
    except SynthesisError as exc:
        primes = str(exc)
    with mock.patch.object(hazardfree, "prime_implicants", reference_primes):
        try:
            expected = dhf_prime_implicants(transitions, 4)
        except SynthesisError as exc:
            expected = str(exc)
    assert primes == expected


@pytest.mark.parametrize("onset,dcset,n", [
    ([5], [], 2), ([], [5], 2), ([-1], [], 2), ([0, 1], [4], 2),
])
@pytest.mark.parametrize("engine", [minimize, espresso, prime_implicants])
def test_out_of_range_minterms_rejected(engine, onset, dcset, n):
    bad = [m for m in onset + dcset if not 0 <= m < 1 << n][0]
    with pytest.raises(ModelError, match=r"minterm %d .*n = %d" % (bad, n)):
        engine(onset, dcset, n)


# --------------------------------------------------------------------- #
# reference decomposition: candidate expressions evaluated per state
# --------------------------------------------------------------------- #

def _reference_rows(sg, temp: str, divisor: BoolExpr) -> List[Dict[str, int]]:
    rows = []
    for state in sg.states:
        env = {s: sg.value(state, s) for s in sg.signal_order}
        env.setdefault(temp, 0)
        for _ in range(3):
            env[temp] = divisor.eval(env)
        rows.append(env)
    return rows


def _reference_candidates(target_rows, signals, max_candidates=8):
    literals: List[BoolExpr] = []
    for s in signals:
        literals.append(Var(s))
        literals.append(Not(Var(s)))

    def matches(expr):
        return all(expr.eval(env) == value for env, value in target_rows)

    results = [lit for lit in literals if matches(lit)]
    for a, b in itertools.combinations(literals, 2):
        if a.support() == b.support():
            continue
        for expr in (And.of(a, b), Or.of(a, b)):
            if matches(expr):
                results.append(expr)
        if len(results) >= max_candidates:
            break
    return results[:max_candidates]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_candidate_search_matches_reference(data):
    """Random truth tables, constant targets included (which only a pair
    of literals of one signal would match)."""
    signals = ["s%d" % k for k in range(data.draw(st.integers(1, 4)))]
    n_states = data.draw(st.integers(1, 8))
    bit = st.integers(0, 1)
    rows = [{s: data.draw(bit) for s in signals} for _ in range(n_states)]
    values = data.draw(st.one_of(
        st.just([0] * n_states), st.just([1] * n_states),
        st.lists(bit, min_size=n_states, max_size=n_states)))
    full = (1 << n_states) - 1
    literals = [lit for s in signals for lit in _literals(
        s, _truth_column([row[s] for row in rows]), full)]
    max_candidates = data.draw(st.integers(1, 8))
    assert _candidate_exprs(_truth_column(values), literals, max_candidates) \
        == _reference_candidates(list(zip(rows, values)), signals, max_candidates)


def reference_decompose(stg, max_netlists=400,
                        max_states=DECOMPOSE_STATE_BOUND) -> Netlist:
    sg = build_state_graph(stg)
    fns = derive_all_next_state_functions(sg)
    base = synthesize_complex_gates(sg, name=stg.name + "_decomposed")
    oversized = [z for z in sorted(base.gates)
                 if len(base.gates[z].expr.support() - {z}) > 2
                 or _expr_literals(base.gates[z].expr) > 2]
    if not oversized:
        return base
    divisors: List[BoolExpr] = []
    for z in oversized:
        divisors.extend(algebraic_divisors(fns[z].minimized_cubes(),
                                           sg.signal_order))
    if not divisors:
        raise SynthesisError("no algebraic divisors found for %s" % oversized)
    attempts = 0
    diagnostics: List[str] = []
    temp = "map0"
    for divisor in divisors:
        rows = _reference_rows(sg, temp, divisor)
        extended = list(sg.signal_order) + [temp]
        per_gate: Dict[str, List[BoolExpr]] = {}
        for z in sorted(base.gates):
            targets = []
            for env in rows:
                value = fns[z].value(tuple(env[s] for s in sg.signal_order))
                targets.append((env, 0 if value is None else value))
            candidates = _reference_candidates(targets, extended)
            if not candidates:
                diagnostics.append(
                    "divisor %s: no 2-input candidate for %s" % (divisor, z))
                break
            per_gate[z] = candidates
        if len(per_gate) < len(base.gates):
            continue
        divisor_candidates = _reference_candidates(
            [(env, env[temp]) for env in rows], list(sg.signal_order))
        if not divisor_candidates:
            diagnostics.append("divisor %s not realisable in 2 inputs" % divisor)
            continue
        gate_names = sorted(per_gate)
        for combo in itertools.product(*(per_gate[z] for z in gate_names)):
            for divisor_expr in divisor_candidates[:2]:
                attempts += 1
                if attempts > max_netlists:
                    raise SynthesisError(
                        "decomposition search exceeded %d candidate netlists;"
                        " diagnostics: %s" % (max_netlists, diagnostics[:5]))
                netlist = Netlist(stg.name + "_decomposed", inputs=stg.inputs)
                netlist.add(Gate.comb(temp, divisor_expr))
                for z, expr in zip(gate_names, combo):
                    netlist.add(Gate.comb(z, expr))
                try:
                    netlist.validate()
                except SynthesisError:
                    continue
                report = verify_circuit(netlist, stg, max_states=max_states,
                                        stop_at_first=True)
                if report.ok:
                    return netlist
                diagnostics.append(
                    "candidate rejected (%d hazards, %d failures)"
                    % (len(report.hazards), len(report.failures)))
    raise SynthesisError(
        "no hazard-free two-input decomposition found after %d attempts; "
        "first diagnostics: %s" % (attempts, diagnostics[:5]))


def _outcome(run, stg) -> Tuple[str, str]:
    try:
        return "netlist", run(stg).to_eqn()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _renamed_vme(seed: int):
    """``vme_read_csc`` with its signals renamed in a seeded random order
    (the enumeration follows name order)."""
    stg = vme_read_csc()
    names = sorted(stg.signals)
    fresh = ["s%02d" % i for i in range(len(names))]
    random.Random(seed).shuffle(fresh)
    return stg.rename_signals(dict(zip(names, fresh)))


DECOMPOSE_SPECS = (
    sorted(ALL_EXAMPLES.items())
    + [("muller_pipeline_%d" % n, lambda n=n: muller_pipeline(n))
       for n in range(3, 9)]
    + [("parallel_handshakes_%d" % n, lambda n=n: parallel_handshakes(n))
       for n in range(2, 5)]
    + [("sequencer_%d" % n, lambda n=n: sequencer(n)) for n in range(3, 7)]
    + [("vme_read_csc_renamed_%d" % seed, lambda seed=seed: _renamed_vme(seed))
       for seed in range(4)]
)


@pytest.mark.parametrize("name,make", DECOMPOSE_SPECS,
                         ids=[name for name, _ in DECOMPOSE_SPECS])
def test_decompose_matches_reference(name, make):
    assert _outcome(decompose, make()) == _outcome(reference_decompose, make())


class TestBackEndSpans:
    def test_minimize_span_counts_primes_cubes_and_path(self):
        with obs.tracing() as sink:
            cover = minimize([4, 8, 10, 11, 12, 15], [9, 14], 4)
            minimize([1, 2], [], 2)
        first, second = sink.spans("boolmin.minimize")
        assert first["counters"]["primes"] == len(prime_implicants(
            [4, 8, 10, 11, 12, 15], [9, 14], 4))
        assert first["counters"]["cubes"] == len(cover)
        assert second["counters"] == {"primes": 2, "cubes": 2}
        assert "petrick" in first["counters"] or "greedy" in first["counters"]

    def test_decompose_span_counts_divisors_attempts_refusals(self):
        with obs.tracing() as sink:
            decompose(vme_read_csc())
            with pytest.raises(SynthesisError):
                decompose(muller_pipeline(3))
        found, refused = sink.spans("tech.decompose")
        assert found["counters"]["divisors"] > 0
        assert found["counters"]["attempts"] >= 1
        assert "refused" not in found["counters"]
        assert refused["counters"]["refused"] == 1
        assert "attempts" not in refused["counters"]

    def test_no_spans_when_disabled(self):
        sink = obs.add_sink(obs.MemorySink())
        try:
            minimize([1, 2], [], 2)
            decompose(vme_read_csc())
        finally:
            obs.remove_sink(sink)
        assert not sink.records

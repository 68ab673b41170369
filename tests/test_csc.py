"""CSC resolution: signal insertion and concurrency reduction
(paper Sections 2.1, 3.1)."""

import pytest

from repro import obs
from repro.errors import CSCError
from repro.analysis import check_implementability
from repro.petri import is_live, reachable_markings
from repro.stg import (
    concurrent_latch_controller,
    vme_read,
    vme_read_csc,
    vme_read_write,
)
from repro.synth import (
    enumerate_insertions,
    resolve_by_concurrency_reduction,
    resolve_csc,
)


class TestInsertion:
    def test_paper_insertion_is_among_candidates(self):
        """The paper inserts csc0+ before LDS+ and csc0- before D-."""
        candidates = enumerate_insertions(vme_read())
        pairs = {(c.rise_before, c.fall_before) for c in candidates}
        assert ("LDS+", "D-") in pairs

    def test_candidates_all_noninput_targets(self):
        for c in enumerate_insertions(vme_read()):
            # inputs must not be delayed (compositional reasons, §2.1)
            for target in c.rise_before.split(",") + c.fall_before.split(","):
                assert not c.stg.is_input_event(target)

    def test_resolve_vme_read(self):
        resolved = resolve_csc(vme_read())
        report = check_implementability(resolved)
        assert report.implementable
        assert resolved.internal == ["csc0"]
        assert len(reachable_markings(resolved.net)) == 16

    def test_resolution_is_idempotent_on_clean_spec(self):
        stg = vme_read_csc()
        resolved = resolve_csc(stg)
        assert resolved is stg  # nothing inserted

    def test_resolve_concurrent_latch_controller(self):
        resolved = resolve_csc(concurrent_latch_controller())
        assert check_implementability(resolved).implementable
        assert resolved.internal  # at least one csc signal

    def test_budget_exhaustion_raises(self):
        with pytest.raises(CSCError):
            resolve_csc(vme_read(), max_signals=0)


class TestConcurrencyReduction:
    def test_vme_read_resolvable_by_reduction(self):
        """The paper's alternative: delay an event to remove the
        conflicting state (e.g. delay DTACK- until LDS- fires)."""
        reduced, (first, second) = \
            resolve_by_concurrency_reduction(vme_read())
        report = check_implementability(reduced)
        assert report.implementable
        assert not reduced.internal  # no new signal inserted
        assert len(reachable_markings(reduced.net)) < 14
        assert is_live(reduced.net)
        # the delayed event must be non-input
        assert not reduced.is_input_event(second)

    def test_clean_spec_returns_unchanged(self):
        stg = vme_read_csc()
        same, pair = resolve_by_concurrency_reduction(stg)
        assert same is stg and pair == ("", "")

    def test_reduced_spec_synthesizes(self):
        from repro.synth import synthesize_complex_gates
        from repro.verify import verify_circuit

        reduced, _ = resolve_by_concurrency_reduction(vme_read())
        netlist = synthesize_complex_gates(reduced)
        # verify against the reduced spec (the contract the env now obeys)
        assert verify_circuit(netlist, reduced).ok


class TestLivenessFromTheImplementabilityGraph:
    def test_graph_answer_matches_fresh_exploration_on_every_insertion(
            self, monkeypatch):
        """Each candidate's liveness is read off the graph its
        implementability check built; on every insertion the search
        tries it must equal a fresh exploration of the candidate net."""
        import repro.synth.csc as csc

        checked = []

        def recording(stg, **kwargs):
            report = check_implementability(stg, **kwargs)
            checked.append((stg, report))
            return report

        monkeypatch.setattr(csc, "check_implementability", recording)
        enumerate_insertions(vme_read_write(), full_only=False)
        graphs = [(stg, report.state_graph) for stg, report in checked
                  if report.state_graph is not None]
        assert len(graphs) > 10
        for stg, sg in graphs:
            assert is_live(stg.net, graph=sg.ts) == is_live(stg.net)

    def test_report_keeps_the_graph_out_of_repr_and_equality(self):
        report = check_implementability(vme_read())
        assert len(report.state_graph) == report.states
        assert "state_graph" not in repr(report)
        other = check_implementability(vme_read())
        other.state_graph = None
        assert other == report


class TestResolutionSpan:
    def test_span_counts_candidates_by_outcome(self):
        with obs.tracing() as sink:
            resolve_csc(vme_read_write())
        (record,) = sink.spans("synth.csc_resolve")
        counters = record["counters"]
        assert counters["signals"] == 1
        rejected = sum(n for key, n in counters.items()
                       if key.startswith("rejected_"))
        assert counters["candidates"] == counters["accepted"] + rejected
        assert counters["accepted"] > 0
        assert set(key[len("rejected_"):] for key in counters
                   if key.startswith("rejected_")) <= {
            "insert_error", "state_budget", "error", "unbounded",
            "inconsistent", "non_persistent", "not_live", "no_gain"}

    def test_span_closes_on_refusal(self):
        with obs.tracing() as sink:
            with pytest.raises(CSCError):
                resolve_csc(vme_read(), max_signals=0)
        assert len(sink.spans("synth.csc_resolve")) == 1

    def test_no_span_when_disabled(self):
        sink = obs.add_sink(obs.MemorySink())
        try:
            resolve_csc(vme_read())
        finally:
            obs.remove_sink(sink)
        assert not sink.spans("synth.csc_resolve")

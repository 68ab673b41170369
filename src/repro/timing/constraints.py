"""Relative-timing constraints and timing-driven concurrency reduction
(paper, Section 5).

Two uses of timing information from the paper:

* **assumptions** prune the state space: "timing constraints always reduce
  the set of reachable states and hence increase the number of don't care
  states ... this concurrency reduction does not introduce new dependencies
  between signals since it is fully based on timing, not on logic
  ordering";
* **requirements** are exported to the physical level: logic is optimised
  *as if* an ordering held, and the physical tools must guarantee the
  separation (Figure 11(b): enable ``LDS-`` right after ``DSr-`` under the
  requirement ``sep(D-, LDS-) < 0``).

A :class:`LazySTG` bundles an STG with its separation annotations — the
paper's "lazy PN" back-annotation of Figure 10(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ReproError, UnboundedError
from ..stg.stg import STG
from ..ts.builder import build_reachability_graph
from ..ts.state_graph import StateGraph, build_state_graph


@dataclass(frozen=True)
class SeparationConstraint:
    """``sep(early, late) < 0``: event ``early`` always occurs before
    ``late`` (events given as signal-event strings such as ``"D-"``)."""

    early: str
    late: str
    kind: str = "assumption"  # or "requirement"

    def __str__(self):
        return "sep(%s,%s)<0 [%s]" % (self.early, self.late, self.kind)

    def as_priority(self) -> Tuple[str, str]:
        """The (early, late) pair consumed by the verifier's priorities."""
        return (self.early, self.late)


@dataclass
class LazySTG:
    """An STG with relational timing annotations (a lazy PN, Fig. 10(b))."""

    stg: STG
    constraints: List[SeparationConstraint] = field(default_factory=list)

    def describe(self) -> str:
        """The .g text with timing annotations appended as comments."""
        from ..stg.gformat import write_g

        lines = [write_g(self.stg).rstrip()]
        for c in self.constraints:
            lines.append("# timing: %s" % c)
        return "\n".join(lines) + "\n"

    def priorities(self) -> List[Tuple[str, str]]:
        """(early, late) pairs for the verifier."""
        return [c.as_priority() for c in self.constraints]


def apply_timing_assumption(stg: STG, early: str, late: str) -> STG:
    """Concurrency reduction from a timing assumption: add the ordering
    place ``early -> late``.

    The place's initial marking is chosen automatically: the variant that
    keeps the net live and 1-safe is returned (unmarked preferred).
    Raises :class:`ReproError` if neither variant works.
    """
    from ..petri.properties import is_live

    last_error: Optional[str] = None
    for marked in (False, True):
        candidate = stg.add_ordering_arc(early, late, initially_marked=marked)
        try:
            # the 1-safe build refuses any unsafe firing, so one
            # exploration answers both questions
            graph = build_reachability_graph(candidate.net)
            ok = (candidate.net.initial_marking.is_safe()
                  and is_live(candidate.net, graph=graph))
        except UnboundedError:
            ok = False  # a firing violated 1-safeness
        except ReproError as exc:
            last_error = str(exc)
            continue
        if ok:
            return candidate
        last_error = "candidate with marked=%s not safe+live" % marked
    raise ReproError(
        "timing assumption %s -> %s cannot be applied: %s"
        % (early, late, last_error))


def timed_state_graph(stg: STG,
                      assumptions: Sequence[Tuple[str, str]]) -> StateGraph:
    """State graph of the STG under timing assumptions (each an
    ``(early, late)`` pair applied via :func:`apply_timing_assumption`)."""
    current = stg
    for early, late in assumptions:
        current = apply_timing_assumption(current, early, late)
    return build_state_graph(current)

"""Seeded corpus of ``.g`` specifications, each with its known answer.

Every workload draws its items from one seed.  The seed orders the items
of a pass and, on ``resolve`` and ``synthesize``, picks the signal names
of every specification: a seeded renaming changes every name-sorted
order inside the program (candidate enumeration, signal order, minterm
bit order) without changing the structure.  The families, sizes and
shapes are the same for every seed, so two seeds pose problems of the
same difficulty and the run-to-run spread measures the program, not the
draw.  The verdicts keep their library names; see
:func:`_verdict_items` for why.

Answers are recorded only where the paper or the family itself gives
them:

* ``vme_read`` has a CSC conflict and resolves with one inserted signal
  (Sections 2.1 and 3.1);
* ``vme_read_csc`` synthesises to the Section 3.2 equations, 9 literals
  as complex gates;
* every Muller stage ``ci`` is the C-element ``C(c(i-1), c(i+1)')`` (the
  last one follows ``c(n-1)``) and its composition has ``2^(n+1)``
  states;
* ``mutex_controller`` is not speed-independent without an arbiter;
* Muller pipelines are deadlock-free, dining philosophers deadlock in
  the "everyone took the left fork" marking;
* a ring whose rise order and fall order make a rise-phase code equal a
  fall-phase code has a CSC conflict, and one where no such pair exists
  is CSC-clean (the condition is combinatorial, see
  :func:`ring_conflict`).

Refusals stay in the corpus: some rings exhaust the CSC search and
``tech.decompose`` refuses Muller pipelines.  Run the module to print a
corpus: ``python3 -m flowbench.corpus resolve 1``.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.petri import dining_philosophers
from repro.stg import (concurrent_latch_controller, handshake_arbiter_free_choice,
                       latch_controller, muller_pipeline, mutex_controller,
                       parallel_handshakes, sequencer, vme_read, vme_read_csc,
                       vme_read_write, write_g)

WORKLOADS = ("resolve", "synthesize", "verdicts")
ARCHITECTURES = ("cg", "gc", "sr", "decompose")

#: The Section 3.2 complex-gate equations of the READ cycle with csc0.
VME_READ_CSC_EQUATIONS = {
    "D": "LDTACK csc0",
    "LDS": "D + csc0",
    "DTACK": "D",
    "csc0": "DSr (csc0 + LDTACK')",
}

#: Fall-order patterns of the conflicting rings, as functions of the
#: rise order.  With the input rising first, "rev" exhausts the CSC
#: search (a refusal) and the others resolve with one signal.
RING_PATTERNS = {
    "rotr": lambda rise: rise[-1:] + rise[:-1],
    "rotr2": lambda rise: rise[-2:] + rise[:-2],
    "rotl2": lambda rise: rise[2:] + rise[:2],
    "half": lambda rise: rise[len(rise) // 2:] + rise[:len(rise) // 2],
    "rev": lambda rise: rise[::-1],
}

_EVENT = re.compile(r"^([A-Za-z_][A-Za-z0-9_\[\].]*)([+\-~])(/\d+)?$")


@dataclass
class Item:
    """One unit of work: a ``.g`` text and the operation to apply.

    ``op`` is ``resolve``; an architecture of :data:`ARCHITECTURES`; or a
    portfolio query (``deadlock``, ``csc``, ``consistency``, ``reach``).
    ``expect`` holds the known answers the output checks compare with;
    ``target`` is the marking of a reach query.
    """

    name: str
    text: str
    op: str
    expect: Dict[str, object] = field(default_factory=dict)
    target: Optional[Dict[str, int]] = None


def ring_conflict(rise: Sequence[int], fall: Sequence[int]) -> bool:
    """True iff the sequential ring ``rise+ ... fall- ...`` repeats a code.

    After the first ``k`` rises the set of high signals is ``rise[:k]``;
    after the first ``m`` falls it is everything but ``fall[:m]``.  The
    two codes coincide exactly when ``fall[:n-k]`` and ``rise[k:]`` hold
    the same signals.
    """
    n = len(rise)
    return any(set(fall[:n - k]) == set(rise[k:]) for k in range(1, n))


def ring_g(n: int, fall: Sequence[int], name: str) -> str:
    """Ring of ``n`` signals ``x0..x(n-1)``: all rise in index order, then
    fall in ``fall`` order.  ``x0`` is the environment's input."""
    events = ["x%d+" % i for i in range(n)] + ["x%d-" % i for i in fall]
    lines = [".model %s" % name, ".inputs x0",
             ".outputs %s" % " ".join("x%d" % i for i in range(1, n)),
             ".graph"]
    lines += ["%s %s" % (events[j], events[(j + 1) % len(events)])
              for j in range(len(events))]
    lines += [".marking { <%s,%s> }" % (events[-1], events[0]), ".end"]
    return "\n".join(lines) + "\n"


def inconsistent_g() -> str:
    """A ring in which ``x0`` rises twice in a row: a consistency
    violation by construction."""
    events = ["x0+", "x1+", "x0+/1", "x1-", "x0-", "x0-/1"]
    lines = [".model double_rise", ".outputs x0 x1", ".graph"]
    lines += ["%s %s" % (events[j], events[(j + 1) % len(events)])
              for j in range(len(events))]
    lines += [".marking { <x0-/1,x0+> }", ".end"]
    return "\n".join(lines) + "\n"


def handshakes_g(k: int) -> Tuple[List[str], List[str], List[str], List[str]]:
    """Graph lines, inputs, outputs and marking tokens of ``k``
    independent four-phase handshakes ``r<i>/a<i>``."""
    graph, inputs, outputs, marking = [], [], [], []
    for i in range(k):
        r, a = "r%d" % i, "a%d" % i
        cycle = [r + "+", a + "+", r + "-", a + "-"]
        graph += ["%s %s" % (cycle[j], cycle[(j + 1) % 4]) for j in range(4)]
        inputs.append(r)
        outputs.append(a)
        marking.append("<%s,%s>" % (cycle[3], cycle[0]))
    return graph, inputs, outputs, marking


def vme_with_handshakes(k: int) -> str:
    """``vme_read`` in parallel with ``k`` independent handshakes: the
    READ cycle's conflict stays, the state graph grows by ``4^k``."""
    base = write_g(vme_read()).splitlines()
    graph_lines, marking = [], []
    inputs, outputs = [], []
    in_graph = False
    for line in base:
        if line.startswith(".inputs"):
            inputs = line.split()[1:]
        elif line.startswith(".outputs"):
            outputs = line.split()[1:]
        elif line.startswith(".graph"):
            in_graph = True
        elif line.startswith(".marking"):
            in_graph = False
            marking = line[line.index("{") + 1:line.index("}")].split()
        elif in_graph:
            graph_lines.append(line)
    graph, hs_in, hs_out, hs_mark = handshakes_g(k)
    lines = [".model vme_read_x%d" % k,
             ".inputs %s" % " ".join(inputs + hs_in),
             ".outputs %s" % " ".join(outputs + hs_out), ".graph"]
    lines += graph_lines + graph
    lines += [".marking { %s }" % " ".join(marking + hs_mark), ".end"]
    return "\n".join(lines) + "\n"


def net_g(net) -> str:
    """A plain Petri net as ``.g`` text: every transition is a dummy."""
    lines = [".model %s" % net.name,
             ".dummy %s" % " ".join(sorted(net.transitions)), ".graph"]
    for t in sorted(net.transitions):
        lines.append("%s~ %s" % (t, " ".join(sorted(net.postset(t)))))
    for p in sorted(net.places):
        post = sorted(net.postset(p))
        if post:
            lines.append("%s %s" % (p, " ".join(t + "~" for t in post)))
    marked = [p for p in sorted(net.places) if net.places[p].tokens]
    lines += [".marking { %s }" % " ".join(marked), ".end"]
    return "\n".join(lines) + "\n"


def signals_of(text: str) -> List[str]:
    """Declared signal names of a ``.g`` text, in declaration order."""
    names: List[str] = []
    for line in text.splitlines():
        if line.startswith((".inputs", ".outputs", ".internal", ".dummy")):
            names += line.split()[1:]
    return names


def rename_g(text: str, mapping: Dict[str, str]) -> str:
    """Rename signals in a ``.g`` text; place names are kept."""
    def event(token: str) -> str:
        m = _EVENT.match(token)
        if not m:
            return token
        return mapping.get(m.group(1), m.group(1)) + m.group(2) + (m.group(3) or "")

    def implicit(m) -> str:
        return "<%s,%s>" % (event(m.group(1)), event(m.group(2)))

    out = []
    for line in text.splitlines():
        if line.startswith((".inputs", ".outputs", ".internal", ".dummy")):
            head, *names = line.split()
            out.append(" ".join([head] + [mapping.get(s, s) for s in names]))
        elif line.startswith(".marking"):
            out.append(re.sub(r"<([^,>]+),([^>]+)>", implicit, line))
        elif line.startswith("."):
            out.append(line)
        else:
            out.append(" ".join(event(tok) for tok in line.split()))
    return "\n".join(out) + "\n"


class _Namer:
    """Seeded signal renaming: ``s<3 digits>`` names drawn without
    replacement, so every name-sorted order in the program is shuffled."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, text: str) -> Tuple[str, Dict[str, str]]:
        names = signals_of(text)
        numbers = self.rng.sample(range(100, 1000), len(names))
        mapping = {s: "s%d" % k for s, k in zip(names, numbers)}
        return rename_g(text, mapping), mapping


def _resolve_items(rename: _Namer) -> List[Item]:
    items = []
    specs = [("vme_read", write_g(vme_read()), {"csc_signals": 1}),
             ("vme_read_write", write_g(vme_read_write()), {}),
             ("concurrent_latch_controller",
              write_g(concurrent_latch_controller()), {})]
    # vme_read itself is the composition with k = 0 handshakes
    specs += [("vme_read_x%d" % k, vme_with_handshakes(k), {})
              for k in (1, 2)]
    for n in range(4, 8):
        for pattern, fall_of in RING_PATTERNS.items():
            fall = fall_of(list(range(n)))
            specs.append(("ring%d.%s" % (n, pattern),
                          ring_g(n, fall, "ring%d_%s" % (n, pattern)), {}))
    for name, text, expect in specs:
        renamed, _ = rename(text)
        items.append(Item(name, renamed, "resolve",
                          dict(expect, csc_conflict=True)))
    return items


def _muller_expect(n: int, mapping: Dict[str, str]) -> Dict[str, object]:
    """Per stage ``(output, predecessor, successor or None)``."""
    stages = []
    for i in range(1, n + 1):
        succ = mapping["c%d" % (i + 1)] if i < n else None
        stages.append((mapping["c%d" % i], mapping["c%d" % (i - 1)], succ))
    return {"stages": stages, "composed_states": 2 ** (n + 1)}


def _synthesize_items(rename: _Namer) -> List[Item]:
    specs: List[Tuple[str, str, str]] = []
    specs += [("muller_pipeline_%d" % n, "muller", write_g(muller_pipeline(n)))
              for n in range(3, 9)]
    specs += [("parallel_handshakes_%d" % n, "", write_g(parallel_handshakes(n)))
              for n in range(2, 5)]
    specs += [("sequencer_%d" % n, "", write_g(sequencer(n)))
              for n in range(3, 7)]
    specs += [("vme_read_csc", "vme", write_g(vme_read_csc())),
              ("latch_controller", "", write_g(latch_controller())),
              ("handshake_arbiter_free_choice", "",
               write_g(handshake_arbiter_free_choice())),
              ("mutex_controller", "mutex", write_g(mutex_controller()))]
    # the input falls first, so no fall-phase code repeats a rise-phase one
    specs += [("ring%d.clean" % n, "",
               ring_g(n, [0] + list(range(n - 1, 0, -1)), "ring%d_clean" % n))
              for n in range(4, 8)]
    items = []
    for name, family, text in specs:
        renamed, mapping = rename(text)
        expect: Dict[str, object] = {"si": family != "mutex"}
        if family == "muller":
            expect.update(_muller_expect(int(name.rsplit("_", 1)[1]), mapping))
        # tech.decompose targets a speed-independent circuit; the mutex
        # controller has none (and the odd item count keeps the median
        # inside one item's samples)
        archs = ARCHITECTURES[:3] if family == "mutex" else ARCHITECTURES
        for arch in archs:
            item_expect = dict(expect)
            if family == "vme" and arch == "cg":
                item_expect["equations"] = {
                    mapping.get(s, s): _rename_expr(e, mapping)
                    for s, e in VME_READ_CSC_EQUATIONS.items()}
                item_expect["literals"] = 9
            items.append(Item(name, renamed, arch, item_expect))
    return items


def _rename_expr(expr: str, mapping: Dict[str, str]) -> str:
    return re.sub(r"[A-Za-z_][A-Za-z0-9_]*",
                  lambda m: mapping.get(m.group(0), m.group(0)), expr)


def _verdict_items(rename: _Namer) -> List[Item]:
    del rename  # see the rotated-names item below
    queries: List[Tuple[str, str, str, str, Optional[Dict[str, int]]]] = []
    for n in (8, 9, 10, 11, 12, 13, 14, 16):
        queries.append(("muller_pipeline_%d" % n, write_g(muller_pipeline(n)),
                        "deadlock", "deadlock-free", None))
    for n in range(4, 11):
        queries.append(("philosophers_%d" % n, net_g(dining_philosophers(n)),
                        "deadlock", "deadlock", None))
    for n in (4, 5, 6):
        all_left = {"left%d" % i: 1 for i in range(n)}
        queries.append(("philosophers_%d" % n, net_g(dining_philosophers(n)),
                        "reach", "reached", all_left))
    # neighbours 0 and 1 would both hold fork1
    neighbours_eat = {"eating0": 1, "eating1": 1, "thinking2": 1,
                      "thinking3": 1, "fork3": 1}
    queries.append(("philosophers_4", net_g(dining_philosophers(4)), "reach",
                    "unreachable", neighbours_eat))
    for name, ctor, answer in (
            ("vme_read", vme_read, "conflict"),
            ("vme_read_write", vme_read_write, "conflict"),
            ("concurrent_latch_controller", concurrent_latch_controller,
             "conflict"),
            ("vme_read_csc", vme_read_csc, "no-conflict"),
            ("latch_controller", latch_controller, "no-conflict")):
        queries.append((name, write_g(ctor()), "csc", answer, None))
    for n in (10, 11, 12):
        queries.append(("muller_pipeline_%d" % n, write_g(muller_pipeline(n)),
                        "csc", "no-conflict", None))
    for name, ctor in (("vme_read", vme_read),
                       ("vme_read_write", vme_read_write),
                       ("vme_read_csc", vme_read_csc),
                       ("latch_controller", latch_controller),
                       ("concurrent_latch_controller", concurrent_latch_controller),
                       ("mutex_controller", mutex_controller)):
        queries.append((name, write_g(ctor()), "consistency", "consistent",
                        None))
    queries.append(("double_rise", inconsistent_g(), "consistency",
                    "violation", None))
    # The validation probe's P-invariants (Farkas elimination in name
    # order) blow up on some name orders: this rotation of the names
    # costs about a second where the library's order costs milliseconds.
    # Seeded renaming would make such items appear at random, so the
    # verdicts keep their library names and this one fixed instance keeps
    # the defect in every pass.
    muller = write_g(muller_pipeline(11))
    names = signals_of(muller)
    rotated = {s: "s%d" % (100 + (i + len(names) // 2) % len(names))
               for i, s in enumerate(names)}
    queries.append(("muller_pipeline_11.rotated_names",
                    rename_g(muller, rotated), "csc", "no-conflict", None))
    return [Item(name, text, query, {"verdict": answer}, target)
            for name, text, query, answer, target in queries]


_BUILDERS = {"resolve": _resolve_items, "synthesize": _synthesize_items,
             "verdicts": _verdict_items}

#: The untimed warm-up item of each workload (cheap and always present).
WARMUP = {"resolve": ("vme_read", "resolve"),
          "synthesize": ("vme_read_csc", "cg"),
          "verdicts": ("vme_read", "csc")}


def build(workload: str, seed: int) -> List[Item]:
    """The corpus of one workload: every item once, in seeded order."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    items = _BUILDERS[workload](_Namer(rng))
    rng.shuffle(items)
    return items


def warmup_item(workload: str, items: Sequence[Item]) -> Item:
    """The workload's warm-up item, taken from its corpus."""
    name, op = WARMUP[workload]
    return next(i for i in items if i.name == name and i.op == op)


if __name__ == "__main__":
    for entry in build(sys.argv[1], int(sys.argv[2])):
        print("%-32s %-12s %s" % (entry.name, entry.op, entry.expect))

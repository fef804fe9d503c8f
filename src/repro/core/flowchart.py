"""Figure 3 — the MAGUS architecture flowchart, as a validated graph.

Fig. 3 of the paper is a diagram of MAGUS's three components (memory
throughput monitor, throughput predictor, high-frequency detector) and the
control/data edges between them and the hardware. This module encodes that
diagram as a :class:`networkx.DiGraph` whose nodes carry the implementing
classes — so the architecture picture is checked against the code by the
test suite instead of rotting in documentation, and can be dumped as DOT
for rendering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_flowchart", "flowchart_to_dot", "COMPONENTS"]

#: Fig. 3's boxes, mapped to the implementing code.
COMPONENTS: Dict[str, str] = {
    "application": "repro.workloads.base.Workload",
    "pcm_counter": "repro.telemetry.pcm.PCMCounters",
    "monitor": "repro.runtime.daemon.MonitorDaemon",
    "predictor": "repro.core.predictor.TrendPredictor",
    "detector": "repro.core.detector.HighFrequencyDetector",
    "decision": "repro.core.magus.MagusGovernor",
    "msr_0x620": "repro.telemetry.msr.MSRDevice",
    "uncore": "repro.hw.uncore.UncoreModel",
}


def build_flowchart() -> "nx.DiGraph":
    """Construct Fig. 3 as a directed graph.

    Nodes carry ``impl`` (dotted path of the implementing class) and
    ``phase`` (the paper's colour-coding: monitor / phase1 / phase2 /
    actuation / substrate).  networkx (the ``analysis`` extra) is imported
    here, so importing :mod:`repro` does not need it.
    """
    import networkx as nx

    g = nx.DiGraph(name="MAGUS (paper Fig. 3)")
    phase_of = {
        "application": "substrate",
        "pcm_counter": "monitor",
        "monitor": "monitor",
        "predictor": "phase1",
        "detector": "phase2",
        "decision": "phase1",
        "msr_0x620": "actuation",
        "uncore": "substrate",
    }
    for node, impl in COMPONENTS.items():
        g.add_node(node, impl=impl, phase=phase_of[node])

    # Data-flow edges (what feeds what).
    g.add_edge("application", "pcm_counter", kind="data", label="memory traffic")
    g.add_edge("pcm_counter", "monitor", kind="data", label="throughput (MB/s)")
    g.add_edge("monitor", "predictor", kind="data", label="mem_throughput_ls push")
    g.add_edge("predictor", "decision", kind="data", label="trend ∈ {+1,0,−1}")
    g.add_edge("predictor", "detector", kind="data", label="tune-event flag")
    g.add_edge("detector", "decision", kind="control", label="high-freq override")
    g.add_edge("decision", "msr_0x620", kind="control", label="max-ratio bits")
    g.add_edge("msr_0x620", "uncore", kind="control", label="frequency target")
    g.add_edge("uncore", "application", kind="data", label="delivered bandwidth")
    return g


def flowchart_to_dot(g: "Optional[nx.DiGraph]" = None) -> str:
    """Render the flowchart as Graphviz DOT text (no graphviz required)."""
    graph = g if g is not None else build_flowchart()
    lines = [f'digraph "{graph.graph.get("name", "magus")}" {{', "  rankdir=LR;"]
    for node, attrs in graph.nodes(data=True):
        lines.append(f'  {node} [label="{node}\\n({attrs["phase"]})"];')
    for u, v, attrs in graph.edges(data=True):
        style = "dashed" if attrs.get("kind") == "control" else "solid"
        lines.append(f'  {u} -> {v} [label="{attrs.get("label", "")}", style={style}];')
    lines.append("}")
    return "\n".join(lines)

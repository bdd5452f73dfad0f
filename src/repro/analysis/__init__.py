"""Static analyses: link-time emitter pruning (tcc section 5.2) and the
abstract-interpretation dataflow framework behind proof-carrying guard
elision (``lattice``/``dataflow``/``facts``)."""

from repro.analysis.usedops import (
    UsedOpsReport,
    collect_used_ops,
    emitter_size_estimate,
    fusable_kinds,
    prune_report,
)

__all__ = [
    "UsedOpsReport",
    "collect_used_ops",
    "emitter_size_estimate",
    "fusable_kinds",
    "prune_report",
]

"""Modular (Kirigami-style) verification: cutters and interface language.

The driver lives in :mod:`repro.analysis.partition`; this package holds the
graph-level pieces (fragmenting a :class:`~repro.topology.graph.Topology`)
and the cut-file / annotation format.
"""

from .cutter import (PartitionPlan, auto_partition, bfs_rings, fattree_pods,
                     plan_from_cut_links, plan_from_fragments, spectral_bisect)
from .interfaces import (ANNOTATION_KINDS, INFER, Annotation, CutSpec,
                         load_cut_file, parse_cut_spec)

__all__ = [
    "PartitionPlan", "auto_partition", "bfs_rings", "fattree_pods",
    "plan_from_cut_links", "plan_from_fragments", "spectral_bisect",
    "ANNOTATION_KINDS", "INFER", "Annotation", "CutSpec",
    "load_cut_file", "parse_cut_spec",
]

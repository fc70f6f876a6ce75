"""The interface language for modular verification (Kirigami-style).

Every directed cut edge ``(u, v)`` carries an :class:`Annotation`
describing the post-transfer message ``trans((u,v), A_u)`` crossing it:

* ``route`` — a concrete NV expression the message must *equal*
  (e.g. ``Some {length = 2u8; lp = 100u8; tags = {}}``);
* ``pred`` — an NV predicate ``fun (x : attribute) -> ...`` the message
  must *satisfy*;
* ``infer`` — seed the annotation from a whole-network simulation pass
  (the driver's inference mode).

The fragment containing ``v`` **assumes** the annotation (the message is
merged into ``v`` as an interface symbolic constrained by it); the fragment
containing ``u`` must **guarantee** it (an SMT obligation that what it
actually sends satisfies the annotation in every stable state).  Checking
both directions is what makes the decomposition sound — and what catches a
wrong annotation as a fragment-level refutation naming the edge.

Cut files are JSON::

    {
      "fragments": [[0, 1], [2, 3]],          // or "cut_links": [[1, 2]]
      "interfaces": {
        "1->2": {"route": "Some 1u8"},
        "2->1": {"pred": "fun (x : attribute) -> match x with | None -> false | Some h -> h <= 3u8"},
        "3->0": "infer"
      }
    }

``fragments`` and ``cut_links`` are alternatives (give either the node sets
or the undirected links to sever); unlisted directed cut edges default to
``infer``.
"""

from __future__ import annotations

import json
from typing import Any

from .._struct import field, struct
from ..lang.errors import NvPartitionError

ANNOTATION_KINDS = ("route", "pred", "infer")


@struct(frozen=True)
class Annotation:
    """One directed interface annotation: ``kind`` plus, for textual kinds,
    the NV source ``text``."""

    kind: str
    text: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ANNOTATION_KINDS:
            raise NvPartitionError(
                f"unknown annotation kind {self.kind!r}; "
                f"use one of {ANNOTATION_KINDS}")
        if self.kind == "infer" and self.text is not None:
            raise NvPartitionError("'infer' annotations carry no text")
        if self.kind != "infer" and not self.text:
            raise NvPartitionError(f"{self.kind!r} annotation needs NV source text")


INFER = Annotation("infer")


@struct
class CutSpec:
    """A parsed cut file: how to fragment the network and what to assume on
    each directed cut edge.  ``fragments`` and ``cut_links`` are mutually
    exclusive ways to describe the cut; ``interfaces`` maps directed edges
    to annotations (missing edges default to :data:`INFER`)."""

    fragments: list[list[int]] | None = None
    cut_links: list[tuple[int, int]] | None = None
    interfaces: dict[tuple[int, int], Annotation] = field(default_factory=dict)

    def annotation(self, edge: tuple[int, int]) -> Annotation:
        return self.interfaces.get(edge, INFER)


def _parse_edge_key(key: str) -> tuple[int, int]:
    try:
        u, v = key.split("->")
        return int(u.strip()), int(v.strip())
    except ValueError:
        raise NvPartitionError(
            f"bad interface edge key {key!r}; expected 'u->v'") from None


def _parse_annotation(value: Any) -> Annotation:
    if value == "infer":
        return INFER
    if isinstance(value, dict) and len(value) == 1:
        (kind, text), = value.items()
        if kind in ("route", "pred") and isinstance(text, str):
            return Annotation(kind, text)
    raise NvPartitionError(
        f"bad interface annotation {value!r}; expected \"infer\", "
        "{\"route\": \"<nv expr>\"} or {\"pred\": \"<nv fun>\"}")


def parse_cut_spec(data: Any) -> CutSpec:
    """Validate and normalise a decoded cut-file JSON object."""
    if not isinstance(data, dict):
        raise NvPartitionError("cut file must be a JSON object")
    unknown = set(data) - {"fragments", "cut_links", "interfaces"}
    if unknown:
        raise NvPartitionError(f"unknown cut-file keys {sorted(unknown)}")
    fragments = data.get("fragments")
    cut_links = data.get("cut_links")
    if (fragments is None) == (cut_links is None):
        raise NvPartitionError(
            "cut file needs exactly one of 'fragments' or 'cut_links'")
    if fragments is not None:
        if (not isinstance(fragments, list) or not fragments
                or not all(isinstance(f, list) and f for f in fragments)):
            raise NvPartitionError("'fragments' must be a list of node lists")
        fragments = [[int(u) for u in f] for f in fragments]
    if cut_links is not None:
        try:
            cut_links = [(int(u), int(v)) for u, v in cut_links]
        except (TypeError, ValueError):
            raise NvPartitionError(
                "'cut_links' must be a list of [u, v] pairs") from None
    interfaces = {
        _parse_edge_key(k): _parse_annotation(v)
        for k, v in (data.get("interfaces") or {}).items()
    }
    return CutSpec(fragments, cut_links, interfaces)


def load_cut_file(path: str) -> CutSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NvPartitionError(f"cut file {path}: invalid JSON: {exc}") from None
    return parse_cut_spec(data)


def dump_cut_spec(spec: CutSpec) -> str:
    """Serialise a :class:`CutSpec` back to cut-file JSON (round-trips
    through :func:`parse_cut_spec`)."""
    data: dict[str, Any] = {}
    if spec.fragments is not None:
        data["fragments"] = [list(f) for f in spec.fragments]
    if spec.cut_links is not None:
        data["cut_links"] = [list(l) for l in spec.cut_links]
    if spec.interfaces:
        data["interfaces"] = {
            f"{u}->{v}": ("infer" if a.kind == "infer" else {a.kind: a.text})
            for (u, v), a in sorted(spec.interfaces.items())
        }
    return json.dumps(data, indent=2)

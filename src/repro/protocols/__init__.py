"""NV protocol model library.

Each module holds NV source for one protocol model; ``include <name>`` in NV
source resolves here.  The registry mirrors the paper's building-block story:
standard protocols are ordinary NV programs that user programs compose and
tweak (paper section 2.6).
"""

from __future__ import annotations

from .bgp import BGP_NV
from .bgp_narrow import BGP_NARROW_NV
from .bgp_traversed import BGP_TRAVERSED_NV
from .ospf import OSPF_NV
from .rip import RIP_NV
from .static import STATIC_NV

NV_MODULES: dict[str, str] = {
    "bgp": BGP_NV,
    "bgpNarrow": BGP_NARROW_NV,
    "bgpTraversed": BGP_TRAVERSED_NV,
    "ospf": OSPF_NV,
    "rip": RIP_NV,
    "static": STATIC_NV,
}


def resolve(name: str) -> str:
    """Include resolver for :func:`repro.lang.parser.parse_program`."""
    try:
        return NV_MODULES[name]
    except KeyError:
        raise KeyError(
            f"unknown NV module {name!r}; available: {sorted(NV_MODULES)}") from None


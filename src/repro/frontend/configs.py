"""Parser for a Cisco-IOS-style router configuration dialect (paper fig 1).

This is the front half of the paper's §4 pipeline: vendor-ish configuration
text → a structured surface representation (the role Batfish's IR plays for
the original system).  The dialect covers the control-plane constructs the
paper's translation handles:

* ``interface`` stanzas with ``ip address A.B.C.D/P`` (physical connectivity
  is inferred by matching subnets across routers, as Batfish does);
* ``ip route <net> <mask> <next-hop>`` static routes;
* ``router bgp <asn>`` with ``network``, ``neighbor <ip> remote-as`` /
  ``route-map <name> in|out`` and ``redistribute static|connected|ospf``;
* ``router ospf <pid>`` with ``network <net> <wildcard> area <n>``,
  ``redistribute ...`` and per-interface ``ip ospf cost``;
* ``ip community-list standard <name> permit <asn:tag>...``;
* ``ip prefix-list <name> permit <net>/<len>``;
* ``route-map <name> permit|deny <seq>`` with ``match community``,
  ``match ip address prefix-list``, ``set local-preference``, ``set metric``,
  ``set community`` (additive) and ``set comm-list delete``.
"""

from __future__ import annotations

from .._struct import field, struct
from ..lang.errors import NvError


class ConfigError(NvError):
    """Raised on malformed configuration text."""


# ---------------------------------------------------------------------------
# Addressing helpers
# ---------------------------------------------------------------------------


def parse_ip(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ConfigError(f"malformed IPv4 address {text!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise ConfigError(f"malformed IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mask_to_len(mask: int) -> int:
    """Convert a contiguous netmask to a prefix length."""
    length = bin(mask).count("1")
    expected = ((1 << length) - 1) << (32 - length) if length else 0
    if mask != expected & 0xFFFFFFFF:
        raise ConfigError(f"non-contiguous netmask {format_ip(mask)}")
    return length


def wildcard_to_len(wildcard: int) -> int:
    """OSPF-style inverse masks (0.0.0.255 = /24)."""
    return mask_to_len((~wildcard) & 0xFFFFFFFF)


@struct(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix (network address is canonicalised to the mask)."""

    addr: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ConfigError(f"bad prefix length {self.length}")
        mask = ((1 << self.length) - 1) << (32 - self.length) if self.length else 0
        object.__setattr__(self, "addr", self.addr & mask)

    def contains(self, other: "Prefix") -> bool:
        if other.length < self.length:
            return False
        mask = ((1 << self.length) - 1) << (32 - self.length) if self.length else 0
        return (other.addr & mask) == self.addr

    def __str__(self) -> str:
        return f"{format_ip(self.addr)}/{self.length}"

    @staticmethod
    def parse(text: str) -> "Prefix":
        if "/" not in text:
            raise ConfigError(f"expected A.B.C.D/len, got {text!r}")
        addr, length = text.split("/", 1)
        return Prefix(parse_ip(addr), int(length))


def parse_community(text: str) -> int:
    """Communities are ``asn:tag`` pairs packed into one integer."""
    if ":" in text:
        asn, tag = text.split(":", 1)
        return (int(asn) << 16) | int(tag)
    return int(text)


# ---------------------------------------------------------------------------
# Configuration structure
# ---------------------------------------------------------------------------


@struct
class Interface:
    name: str
    prefix: Prefix | None = None
    ospf_cost: int | None = None


@struct
class StaticRoute:
    prefix: Prefix
    next_hop: int  # IP of the next hop


@struct
class BgpNeighbor:
    ip: int
    remote_as: int | None = None
    route_map_in: str | None = None
    route_map_out: str | None = None


@struct
class BgpConfig:
    asn: int
    networks: list[Prefix] = field(default_factory=list)
    neighbors: dict[int, BgpNeighbor] = field(default_factory=dict)
    redistribute: list[str] = field(default_factory=list)

    def neighbor(self, ip: int) -> BgpNeighbor:
        if ip not in self.neighbors:
            self.neighbors[ip] = BgpNeighbor(ip)
        return self.neighbors[ip]


@struct
class OspfNetwork:
    prefix: Prefix
    area: int


@struct
class OspfConfig:
    process_id: int
    networks: list[OspfNetwork] = field(default_factory=list)
    redistribute: list[str] = field(default_factory=list)
    redistribute_metric: int = 20


@struct
class RouteMapClause:
    action: str            # "permit" | "deny"
    seq: int
    match_communities: list[str] = field(default_factory=list)   # list names
    match_prefix_lists: list[str] = field(default_factory=list)
    set_local_pref: int | None = None
    set_metric: int | None = None
    set_communities: list[int] = field(default_factory=list)
    delete_comm_lists: list[str] = field(default_factory=list)


@struct
class RouterConfig:
    hostname: str
    interfaces: dict[str, Interface] = field(default_factory=dict)
    static_routes: list[StaticRoute] = field(default_factory=list)
    bgp: BgpConfig | None = None
    ospf: OspfConfig | None = None
    community_lists: dict[str, list[int]] = field(default_factory=dict)
    prefix_lists: dict[str, list[Prefix]] = field(default_factory=dict)
    route_maps: dict[str, list[RouteMapClause]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ConfigParser:
    """Line-oriented parser; stanza context is tracked like IOS does."""

    def __init__(self, hostname: str) -> None:
        self.config = RouterConfig(hostname)
        self._iface: Interface | None = None
        self._bgp: BgpConfig | None = None
        self._ospf: OspfConfig | None = None
        self._clause: RouteMapClause | None = None

    def parse(self, text: str) -> RouterConfig:
        for raw in text.splitlines():
            line = raw.split("!")[0].rstrip()
            if not line.strip():
                continue
            self._line(line.strip(), indented=raw.startswith((" ", "\t")))
        return self.config

    def _reset_context(self) -> None:
        self._iface = None
        self._bgp = None
        self._ospf = None
        self._clause = None

    def _line(self, line: str, indented: bool) -> None:
        words = line.split()
        head = words[0]

        if head == "hostname":
            self.config.hostname = words[1]
            return
        if head == "interface":
            self._reset_context()
            iface = Interface(words[1])
            self.config.interfaces[words[1]] = iface
            self._iface = iface
            return
        if head == "router" and words[1] == "bgp":
            self._reset_context()
            self._bgp = BgpConfig(int(words[2]))
            self.config.bgp = self._bgp
            return
        if head == "router" and words[1] == "ospf":
            self._reset_context()
            self._ospf = OspfConfig(int(words[2]))
            self.config.ospf = self._ospf
            return
        if head == "route-map":
            self._reset_context()
            name, action, seq = words[1], words[2], int(words[3])
            if action not in ("permit", "deny"):
                raise ConfigError(f"bad route-map action {action!r}")
            clause = RouteMapClause(action, seq)
            self.config.route_maps.setdefault(name, []).append(clause)
            self._clause = clause
            return
        if head == "ip":
            self._ip_line(words)
            return
        if head == "bgp" and self._bgp is not None:
            return  # bgp router-id etc.: accepted, ignored
        if head == "match" and self._clause is not None:
            self._match_line(words)
            return
        if head == "set" and self._clause is not None:
            self._set_line(words)
            return
        if head == "neighbor" and self._bgp is not None:
            self._neighbor_line(words)
            return
        if head == "network":
            self._network_line(words)
            return
        if head == "redistribute":
            target = self._bgp.redistribute if self._bgp is not None else (
                self._ospf.redistribute if self._ospf is not None else None)
            if target is None:
                raise ConfigError("redistribute outside a router stanza")
            target.append(words[1])
            if self._ospf is not None and "metric" in words:
                self._ospf.redistribute_metric = int(words[words.index("metric") + 1])
            return
        if head in ("distance", "maximum-paths", "timers", "no", "exit",
                    "passive-interface", "shutdown", "description"):
            return  # accepted but not modelled
        raise ConfigError(f"unrecognised configuration line: {line!r}")

    def _ip_line(self, words: list[str]) -> None:
        sub = words[1]
        if sub == "address" and self._iface is not None:
            if "/" in words[2]:
                self._iface.prefix = Prefix.parse(words[2])
            else:
                self._iface.prefix = Prefix(parse_ip(words[2]),
                                            mask_to_len(parse_ip(words[3])))
            return
        if sub == "ospf" and words[2] == "cost" and self._iface is not None:
            self._iface.ospf_cost = int(words[3])
            return
        if sub == "route":
            prefix = Prefix(parse_ip(words[2]), mask_to_len(parse_ip(words[3])))
            self.config.static_routes.append(StaticRoute(prefix, parse_ip(words[4])))
            return
        if sub == "community-list":
            # ip community-list standard NAME permit C1 C2 ...
            offset = 3 if words[2] == "standard" else 2
            name = words[offset]
            if words[offset + 1] != "permit":
                raise ConfigError("only permit community-lists are modelled")
            comms = [parse_community(w) for w in words[offset + 2:]]
            self.config.community_lists.setdefault(name, []).extend(comms)
            return
        if sub == "prefix-list":
            # ip prefix-list NAME permit A.B.C.D/len
            name = words[2]
            if words[3] != "permit":
                raise ConfigError("only permit prefix-lists are modelled")
            self.config.prefix_lists.setdefault(name, []).append(
                Prefix.parse(words[4]))
            return
        raise ConfigError(f"unrecognised ip line: {' '.join(words)!r}")

    def _neighbor_line(self, words: list[str]) -> None:
        assert self._bgp is not None
        ip = parse_ip(words[1])
        neighbor = self._bgp.neighbor(ip)
        if words[2] == "remote-as":
            neighbor.remote_as = int(words[3])
        elif words[2] == "route-map":
            if words[4] == "in":
                neighbor.route_map_in = words[3]
            elif words[4] == "out":
                neighbor.route_map_out = words[3]
            else:
                raise ConfigError(f"bad route-map direction {words[4]!r}")
        else:
            raise ConfigError(f"unrecognised neighbor option {words[2]!r}")

    def _network_line(self, words: list[str]) -> None:
        if self._ospf is not None:
            # network A.B.C.D W.W.W.W area N
            prefix = Prefix(parse_ip(words[1]), wildcard_to_len(parse_ip(words[2])))
            if words[3] != "area":
                raise ConfigError("ospf network requires an area")
            self._ospf.networks.append(OspfNetwork(prefix, int(words[4])))
            return
        if self._bgp is not None:
            if "/" in words[1]:
                self._bgp.networks.append(Prefix.parse(words[1]))
            else:
                self._bgp.networks.append(Prefix(parse_ip(words[1]),
                                                 mask_to_len(parse_ip(words[2]))))
            return
        raise ConfigError("network line outside a router stanza")

    def _match_line(self, words: list[str]) -> None:
        assert self._clause is not None
        if words[1] == "community":
            self._clause.match_communities.extend(words[2:])
        elif words[1] == "ip" and words[2] == "address" and words[3] == "prefix-list":
            self._clause.match_prefix_lists.extend(words[4:])
        else:
            raise ConfigError(f"unrecognised match: {' '.join(words)!r}")

    def _set_line(self, words: list[str]) -> None:
        assert self._clause is not None
        if words[1] == "local-preference":
            self._clause.set_local_pref = int(words[2])
        elif words[1] == "metric":
            self._clause.set_metric = int(words[2])
        elif words[1] == "community":
            extra = [w for w in words[2:] if w != "additive"]
            self._clause.set_communities.extend(parse_community(w) for w in extra)
        elif words[1] == "comm-list" and words[3] == "delete":
            self._clause.delete_comm_lists.append(words[2])
        else:
            raise ConfigError(f"unrecognised set: {' '.join(words)!r}")


def parse_config(hostname: str, text: str) -> RouterConfig:
    return ConfigParser(hostname).parse(text)


# ---------------------------------------------------------------------------
# Topology inference
# ---------------------------------------------------------------------------


def infer_topology(configs: list[RouterConfig]
                   ) -> tuple[dict[str, int], list[tuple[int, int]]]:
    """Infer physical connectivity by matching interface subnets, the way
    Batfish does: two routers with interfaces in the same subnet are adjacent.

    Returns (hostname -> node index, undirected links).
    """
    node_of = {cfg.hostname: i for i, cfg in enumerate(configs)}
    by_subnet: dict[Prefix, list[int]] = {}
    for cfg in configs:
        for iface in cfg.interfaces.values():
            if iface.prefix is not None:
                subnet = Prefix(iface.prefix.addr, iface.prefix.length)
                by_subnet.setdefault(subnet, []).append(node_of[cfg.hostname])
    links: set[tuple[int, int]] = set()
    for members in by_subnet.values():
        distinct = sorted(set(members))
        for i, u in enumerate(distinct):
            for v in distinct[i + 1:]:
                links.add((u, v))
    return node_of, sorted(links)

"""The converged RIBs of translated configurations, pinned.

``rib_digests.json`` was recorded with the emitter that wrote one
``rm_<router>_<map>`` and one ``trans_<u>_<v>`` declaration per directed
session.  The emitter that groups sessions by shape and feeds each shape
from a per-edge constant table must converge to the same labels on every
node, interpreted and lowered: the same frozen MTBDD, leaf for leaf.
Regenerate (only for an intended change of meaning) with
``PYTHONPATH=src python tests/frontend/test_rib_digests.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from repro.eval.maps import FrozenMap, freeze_value
from repro.eval.values import VRecord, VSome
from repro.frontend.configs import parse_config
from repro.frontend.to_nv import translate
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.transform.pipeline import lower_program
from tests.frontend import test_to_nv as fixtures

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("rib_digests.json")
SEEDS = (1, 2, 20200615)


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(path.stem, module)
    spec.loader.exec_module(module)
    return module


def _workload_configs(k: int, seed: int) -> list:
    """The seeded FatTree(k) configurations of the ``sim_cfg`` benchmark."""
    workloads = _module(ROOT / "benchmarks" / "e2e" / "workloads.py")
    texts = workloads.fattree_configs(k, random.Random(seed))
    return [parse_config(name[:-4], text) for name, text in sorted(texts.items())]


def _example_configs() -> list:
    example = _module(ROOT / "examples" / "config_translation.py")
    return [parse_config(h, text) for h, text in
            [("edge1", example.R1), ("core", example.R2), ("edge2", example.R3)]]


def cases() -> dict[str, tuple]:
    """name -> (configurations, assert_prefix)."""
    out = {f"fattree_configs({k}, seed={s})": (_workload_configs(k, s), None)
           for k in (2, 4) for s in SEEDS}
    out["config_translation"] = (_example_configs(), "192.168.1.0/24")
    out["bgp_chain"] = (fixtures.bgp_chain(), "192.168.1.0/24")
    out["ospf_pair"] = (fixtures.ospf_pair(), None)
    out["no_session_pair"] = (fixtures.no_session_pair(), None)
    out["ospf_areas"] = (fixtures.ospf_areas(), None)
    return out


def _canon(value) -> str:
    if isinstance(value, FrozenMap):
        leaves = ",".join(_canon(v) for v in value.leaves)
        return f"map[{value.key_ty}]({value.nodes.hex()};{leaves})"
    if isinstance(value, VSome):
        return f"Some({_canon(value.value)})"
    if isinstance(value, VRecord):
        return "{" + ";".join(f"{n}={_canon(v)}" for n, v in value.fields) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(value)


def rib_digests(configs: list, assert_prefix: str | None) -> dict:
    """Per-node SHA-256 of the frozen converged label, as simulated and as
    simulated after the inlining and partial evaluation of
    ``simulate --lower``."""
    net = translate(configs, assert_prefix=assert_prefix).load()
    out = {}
    lowered = lower_program(net)
    for mode, program in (("interp", net), ("lower", lowered)):
        labels = simulate(functions_from_program(program)).labels
        out[mode] = [hashlib.sha256(_canon(freeze_value(x)).encode()).hexdigest()[:16]
                     for x in labels]
    return out


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_converged_ribs_match_the_per_session_emitter(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert rib_digests(*CASES[name]) == golden


if __name__ == "__main__":
    record = {name: rib_digests(*case) for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

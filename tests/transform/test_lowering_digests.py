"""Golden lowerings: what the §5.2 pipeline produces, pinned up to α.

``lowering_digests.json`` was recorded with the transform package of the
commit before PR 20 (rename / substitute / rename / β per declaration, a
``_count_uses`` per ``let``); the test below requires today's one-walk
inliner and count-once partial evaluator to produce the same programs.  Fresh
names are numbered differently, so the digest is taken over the α-canonical
text: every binder renamed ``b0, b1, …`` in traversal order.  Regenerate (only
when a lowering change is intended) with
``PYTHONPATH=src:. python tests/transform/test_lowering_digests.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.frontend.configs import parse_config
from repro.frontend.to_nv import translate
from repro.lang import ast as A
from repro.lang.errors import NvError
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from repro.lang.typecheck import check_program
from repro.protocols import NV_MODULES, resolve
from repro.topology import (all_prefixes_program, fat_program, leaf_nodes,
                            sp_program)
from repro.transform.inline import inline_program
from repro.transform.partial_eval import partial_eval_program
from repro.transform.pipeline import ast_size, lower_program
from repro.transform.rename import Renamer
from tests.lang.test_annotation_digests import digest as annotation_digest
from tests.lang.test_annotation_digests import expressions, fattree_configs
from tests.transform.test_transforms import all_binders

GOLDEN = Path(__file__).with_name("lowering_digests.json")
EXAMPLES = Path(__file__).parents[2] / "examples"


def _example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_nv_example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # every one guards main()
    return module


def cfg_source(k: int) -> str:
    return translate(fattree_configs(k),
                     assert_prefix=f"10.0.{leaf_nodes(k)[0]}.0/24").source


def corpus() -> dict[str, tuple[str, bool]]:
    """name -> (NV source, is a full fig-8 network)."""
    way = _example("waypointing")
    cfg = _example("config_translation")
    out = {
        "examples/quickstart": _example("quickstart").NETWORK,
        "examples/custom_protocol": _example("custom_protocol").MODEL,
        "examples/waypointing(plain)":
            way.MODEL.replace("TRANS", way.PLAIN_TRANS),
        "examples/waypointing(firewall)":
            way.MODEL.replace("TRANS", way.PREFER_FIREWALL),
        "examples/config_translation": translate(
            [parse_config(h, text) for h, text in
             [("edge1", cfg.R1), ("core", cfg.R2), ("edge2", cfg.R3)]],
            assert_prefix="192.168.1.0/24").source,
        # fault_tolerance.py and modular_verification.py load these:
        "examples/fault_tolerance(sp)": sp_program(4),
        "examples/fault_tolerance(fat)": fat_program(4),
        "examples/modular_verification": sp_program(2, dest=0, narrow=True),
        "all_prefixes_program(4,sp)": all_prefixes_program(4, "sp"),
        "all_prefixes_program(4,fat)": all_prefixes_program(4, "fat"),
        "translate(fattree_configs(2))": cfg_source(2),
        "translate(fattree_configs(4))": cfg_source(4),
    }
    out = {name: (source, True) for name, source in out.items()}
    for name, source in sorted(NV_MODULES.items()):
        out[f"protocols/{name}"] = (source, False)
    return out


class _Canonical(Renamer):
    """Binders become ``b0, b1, …`` whatever they were called."""

    def fresh(self, base: str) -> str:
        return f"b{next(self._counter)}"


def canonical_text(program: A.Program) -> str:
    renamer = _Canonical()
    decls = []
    for d in program.decls:
        if isinstance(d, A.DLet):
            decls.append(A.DLet(d.name, renamer.rename_expr(d.expr), annot=d.annot))
        elif isinstance(d, A.DRequire):
            decls.append(A.DRequire(renamer.rename_expr(d.expr)))
        else:
            decls.append(d)
    return print_program(A.Program(decls))


def _digest(program: A.Program) -> dict:
    return {"nodes": ast_size(program),
            "sha256": hashlib.sha256(canonical_text(program).encode()).hexdigest()}


def lowering(source: str, network: bool) -> dict:
    """The digests of one corpus entry.  A network goes through
    ``lower_program`` twice (the value-preserving subset ``simulate --lower``
    runs, and all of §5.2); a bare protocol module — whose helpers inlining
    would drop — through inline and partial evaluation with every
    declaration kept."""
    program = parse_program(source, resolve)
    check_program(program)
    keep = None if network else {d.name for d in program.decls
                                 if isinstance(d, A.DLet)}
    inlined = inline_program(program, keep)
    out = {"inlined": _digest(inlined)}
    if not network:
        out["partial_eval"] = _digest(partial_eval_program(inlined))
        return out
    out["partial_eval"] = _digest(
        lower_program(program, unbox=False, flatten=False))
    try:
        out["full"] = _digest(lower_program(program))
    except NvError as err:  # a shape §5.2 rejects must stay rejected
        out["full"] = {"error": type(err).__name__}
    return out


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lowering_matches_the_four_walk_pipeline(name):
    assert lowering(*CORPUS[name]) == json.loads(GOLDEN.read_text())[name]


NETWORKS = sorted(name for name, (_, network) in CORPUS.items() if network)


class TestOneWalk:
    """The shape of what the one-walk passes build, and what they cost."""

    # Profiled calls (``sys.setprofile``, Python and C) per input node of
    # ``inline_program`` + ``partial_eval_program`` on the FatTree(4) config
    # translation at the commit before PR 20: 2,097,780 calls, 8,212 nodes
    # (252.1 per node on FatTree(2): it was linear, with four times the walks).
    PARENT = 2_097_780 / 8_212

    @staticmethod
    def calls_per_node(k: int) -> float:
        program = parse_program(cfg_source(k), resolve)
        check_program(program)
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(profiler)
        try:
            partial_eval_program(inline_program(program))
        finally:
            sys.setprofile(None)
        return calls / ast_size(program)

    def test_at_most_half_the_calls_and_linear(self):
        # Linear over FatTree(4) -> (8), a program six times larger.  Since
        # the front end emits one transfer per shape, the FatTree(2)
        # translation is over a third fixed header (168 of 457 nodes), so its
        # calls per node no longer stand for the per-edge code's.
        small, large = self.calls_per_node(4), self.calls_per_node(8)
        assert small <= 0.5 * self.PARENT, small
        assert large <= 1.25 * small, (small, large)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_output_is_a_tree_with_unique_binders(self, name):
        """``typecheck`` annotates ``e.ty`` in place and the partial
        evaluator counts uses by name: no node object may occur twice in a
        lowered program, no binder name be bound twice."""
        program = parse_program(CORPUS[name][0], resolve)
        check_program(program)
        for lowered in (inline_program(program),
                        lower_program(program, unbox=False, flatten=False),
                        lower_program(program)):
            nodes = list(expressions(lowered))
            assert len({id(e) for e in nodes}) == len(nodes)
            binders = [b for d in lowered.decls
                       if isinstance(d, (A.DLet, A.DRequire))
                       for b in all_binders(d.expr)]
            assert len(set(binders)) == len(binders)

    @pytest.mark.parametrize("name", NETWORKS)
    def test_input_is_left_alone(self, name):
        program = parse_program(CORPUS[name][0], resolve)
        check_program(program)
        before = print_program(program), annotation_digest(program)
        inputs = {id(e) for e in expressions(program)}
        for lowered in (lower_program(program, unbox=False, flatten=False),
                        lower_program(program)):
            assert not inputs & {id(e) for e in expressions(lowered)}
        assert (print_program(program), annotation_digest(program)) == before


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: lowering(*entry) for name, entry in sorted(CORPUS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

"""Every public name in ``src/repro`` is reached from program code.

A public function, class or method that only tests call is surface a reader
must learn and a refactor must keep green, though nothing the package does
depends on it.  This guard parses every module under ``src/repro`` and
requires each public function, class and method name to occur as a word in
program code — ``src/``, ``examples/``, ``benchmarks/`` (the CI gate scripts
and paper-claim checks) and ``perfbench/`` (including the names its tracer
wraps by string) — outside the name's own definition.  Docstrings, comments,
``__all__`` lists and import lines do not count, and neither does a
definition's own name or body (so recursion and a ``__repr__`` naming its
class reach nothing).

Matching is by bare word, so a method shares its name with every other use
of that word: the guard finds names nothing mentions, not every dead method.

:data:`KEPT` lists the names that stay although program code never mentions
them, each with the reason; an entry that program code reaches, or whose
definition is gone, fails the guard too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")

#: qualified name -> why it stays though only tests use it
KEPT = {
    "repro.accelerator.npu.Npu.reference_forward": (
        "oracle: the software forward pass from the pristine quantized words, "
        "which the geometry-invariance tests compare the ring's outputs against"
    ),
    "repro.accelerator.microcode.NeuronPlacement.locate": (
        "oracle: resolves a block word to its (pe, address) by walking the "
        "segments, independently of the compiled gather plan and fault masks"
    ),
    "repro.accelerator.microcode.WeightPlacement.load_layer_words": (
        "oracle: reads a layer back address by address for the write-plan and "
        "gather-plan round trips and test_from_fault_maps_roundtrip_with_hardware"
    ),
    "repro.matic.masking.apply_masks_to_values": (
        "oracle: the per-tensor quantize/mask/decode that CompiledMasks must "
        "equal bit for bit"
    ),
    "repro.experiments.faults.FaultPlan.to_json": (
        "oracle: writes the rule grammar that $REPRO_FAULT_PLAN is parsed "
        "from, so the round-trip tests check the parser against it"
    ),
    "repro.experiments.engine.SweepExecution.as_completed": (
        "the streaming handle: the queue tests consume part of a sweep through "
        "it and abandon the rest, which is how they kill a coordinator "
        "mid-sweep and check the resume path"
    ),
    "repro.sram.bitcell.GaussianVminModel": (
        "oracle: a base model with closed-form marginals, against which the "
        "tests check that CorrelatedVminModel preserves every cell's marginal"
    ),
}


def _uses(path: Path, tree: ast.AST) -> list[tuple[str, Path, int]]:
    """``(word, file, line)`` for every word the module's code mentions.

    ``ast.walk`` visits a node before its children, so a docstring or an
    ``__all__`` assignment is marked before its words would be read.
    """
    skipped = set()
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(child) for child in ast.walk(node))
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.keyword) and node.arg is not None:
            words = [node.arg]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = WORD.findall(node.value)
        else:
            continue
        found.extend((word, path, node.lineno) for word in words)
    return found


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, name, first line, last line)`` of public definitions."""
    found = []

    def walk(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found.append((f"{prefix}{node.name}", node.name, first, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")

    walk(tree.body, f"{module}.")
    return found


@pytest.fixture(scope="module")
def unreached() -> set[str]:
    """Qualified names of public definitions no program code mentions."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for word, where, line in _uses(path, tree):
                uses.setdefault(word, []).append((where, line))
            if PACKAGE in path.parents:
                parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
                module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
                definitions.extend((path, *entry) for entry in _definitions(module, tree))
    return {
        qualified
        for path, qualified, name, first, last in definitions
        if all(where == path and first <= line <= last for where, line in uses.get(name, ()))
    }


def test_every_public_name_is_reached_from_program_code(unreached):
    assert sorted(unreached - KEPT.keys()) == []


def test_every_kept_name_is_still_defined_and_unreached(unreached):
    assert sorted(KEPT.keys() - unreached) == []

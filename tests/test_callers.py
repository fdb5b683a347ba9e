"""Every package function and class has a caller on a program path.

A function that only tests call is test code: it belongs in
tests/reference.py, beside the tests that hold package code against it.
A name counts as reached when code in src/graphnorm/ or scripts/ reads it
(as a name or an attribute, outside its own definition) or when
graphnorm.__all__ exports it.  Only graph.py reads the kernel's index
arrays; every other module asks it for neighbour lists or sums.  Only
enumeration.py defines or reads the graph6 decoders.
"""

import ast
from pathlib import Path

import graphnorm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "graphnorm").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _definitions():
    """(module, name) of every top-level function and class, and of every public method."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}"


def _reads(path):
    """Names read in a file, save a top-level definition's reads of its own name."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        read = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                read.add(sub.attr)
        read.discard(getattr(node, "name", None))
        names |= read
    return names


def test_every_package_function_has_a_program_caller():
    reached = set(graphnorm.__all__).union(*map(_reads, PROGRAM))
    unreached = sorted(
        f"{module}.{name}" for module, name in _definitions() if name.rpartition(".")[2] not in reached
    )
    assert unreached == [], "only tests call these; move them to tests/reference.py"


def test_only_graph_reads_the_kernel_index_arrays():
    readers = sorted(path.stem for path in PACKAGE if path.stem != "graph" and {"indptr", "indices"} & _reads(path))
    assert readers == [], "read neighbours through graph.py's neighbors or neighbor_sums"


def test_only_enumeration_holds_the_graph6_decoders():
    decoders = {"graph6_pairs", "graph6_adjacency", "parse_graph6"}
    holders = {module for module, name in _definitions() if name in decoders}
    holders |= {path.stem for path in PACKAGE if decoders & _reads(path)}
    assert sorted(holders) == ["enumeration"], "graph6 records and graph codes are decoded in enumeration.py"

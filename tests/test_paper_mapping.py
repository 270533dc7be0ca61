"""``docs/paper_mapping.md`` names only code that exists.

Each backticked ``path.py`` or ``path.py::Name[::test]`` in the mapping
must be a file, and each name after it a ``def``, ``class`` or assignment
in that file: the first at any depth (the mapping cites a test method
without its class), each later one inside the one before, and a dotted
name (``StateTransition.as_log_message``) one part at a time.  A path
with a directory is read from the repository root or from ``src/repro``;
a bare filename is looked for under the directories below.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAPPING = ROOT / "docs" / "paper_mapping.md"
SEARCHED = ("src", "tests", "benchmarks", "bench")

REFERENCE = re.compile(r"`([\w./{},-]+\.py(?:::[\w.]+(?:\(\))?)*)`")


def references():
    """Every distinct reference, a ``{a,b}.py`` alternation expanded."""
    found = set()
    for ref in REFERENCE.findall(MAPPING.read_text(encoding="utf-8")):
        ref = ref.replace("()", "")
        alternation = re.search(r"\{([^}]*)\}", ref)
        if alternation is None:
            found.add(ref)
            continue
        for option in alternation.group(1).split(","):
            found.add(ref.replace(alternation.group(0), option))
    return sorted(found)


def candidate_files(path):
    if "/" in path:
        return [p for p in (ROOT / path, ROOT / "src" / "repro" / path)
                if p.is_file()]
    return [p for top in SEARCHED for p in (ROOT / top).rglob(path)]


def defines(body, name):
    """The statement in ``body`` that defines ``name``, if any."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def resolves(path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [node.body for node in ast.walk(tree) if hasattr(node, "body")
              and isinstance(node.body, list)]
    for name in names:
        nodes = [node for body in scopes
                 if (node := defines(body, name)) is not None]
        if not nodes:
            return False
        scopes = [node.body for node in nodes if hasattr(node, "body")]
    return True


def test_the_mapping_cites_code():
    assert len(references()) > 100


@pytest.mark.parametrize("reference", references())
def test_every_reference_resolves(reference):
    path, *qualified = reference.split("::")
    files = candidate_files(path)
    assert files, f"{path}: no such file"
    names = [part for name in qualified for part in name.split(".")]
    assert any(resolves(f, names) for f in files), (
        f"{reference}: {'.'.join(names)} is not defined in {path}"
    )

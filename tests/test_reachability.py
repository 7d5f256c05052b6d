"""Library code must be reached from the library, the scripts or the
benchmark, not only from tests: a scan of every module's top-level
functions and classes and each class's non-dunder methods."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdpcompose"
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# Names that nothing under CALLER_DIRS names, each for a reason.
ALLOWED = {
    "dqn.td_targets": "the acceptance suite checks DQN's TD targets with it",
    "vhome.action_sequence": "the acceptance suite reads a script's actions with it",
    "kg.CommunicationType._missing_": "enum hook that Enum calls on a failed lookup",
    "service._Handler.do_GET": "BaseHTTPRequestHandler hook",
    "service._Handler.do_POST": "BaseHTTPRequestHandler hook",
    "service._Handler.log_message": "BaseHTTPRequestHandler hook",
}


def _definitions():
    """(qualified name, name) of each function, class and non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _caller_lines():
    return [
        line
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
        if "tests" not in path.relative_to(directory).parts
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def test_library_code_is_reached_outside_tests():
    lines = _caller_lines()
    unreached = set()
    for qualified, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(async\s+def|def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unreached.add(qualified)
    assert sorted(unreached - set(ALLOWED)) == [], "reached only by tests"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed but reached: drop from ALLOWED"

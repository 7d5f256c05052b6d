"""Library code must be reached from the library, the scripts or the
benchmark, not only from tests: a scan of every module's top-level
functions and classes and each class's non-dunder methods. A use is a
name, an attribute or an imported name in the code; a mention in a
docstring or a comment is not one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mdpcompose"
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# Names that no code under CALLER_DIRS uses, each for a reason.
ALLOWED = {
    "dqn.td_targets": "the acceptance suite checks DQN's TD targets with it",
    "vhome.action_sequence": "the acceptance suite reads a script's actions with it",
    "kg.isomorphic": "the acceptance suite checks the Turtle and JSON round trips with it",
    "embedding.TrainSample": "the acceptance suite's gradient check builds its samples with it",
    "kg.CommunicationType._missing_": "enum hook that Enum calls on a failed lookup",
    "service._Handler.do_GET": "BaseHTTPRequestHandler hook",
    "service._Handler.do_POST": "BaseHTTPRequestHandler hook",
    "service._Handler.log_message": "BaseHTTPRequestHandler hook",
    "service._Handler.parse_request": "BaseHTTPRequestHandler hook",
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


def _used_names(paths):
    """Every name, attribute and imported name in the code of ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def _caller_paths():
    return [
        path
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
        if "tests" not in path.relative_to(directory).parts
    ]


def test_a_mention_in_prose_is_not_a_use(tmp_path):
    code = tmp_path / "caller.py"
    code.write_text(
        '"""Calls helper() in prose."""\n'
        "# and in a comment: other()\n"
        "from pkg import imported as alias\n"
        "value = module.attribute(name)\n"
        "text = 'quoted()'\n"
    )
    assert _used_names([code]) == {"imported", "module", "attribute", "name", "value", "text"}


def test_library_code_is_reached_outside_tests():
    used = _used_names(_caller_paths())
    unreached = {qualified for qualified, name in _definitions() if name not in used}
    assert sorted(unreached - set(ALLOWED)) == [], "reached only by tests"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed but reached: drop from ALLOWED"

"""Layout guards: no public `src/` code without a caller in `src/`, and
no test-only dependency (scipy) in the package's import graph or in any
stage of a run.

Every public module-level function or class of `radroute` must be named
somewhere in `src/` outside its own definition: loaded by name in its own
module, read as `module.name`, or imported with `from .module import name`.
A mention in a docstring or comment does not count, and nothing is exempt:
code that only tests call lives in `tests/oracles.py`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

from test_acceptance import GATE9_CONFIG

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "radroute"

def _uses(trees):
    """(module, name) pairs read as module.name or imported from module,
    and per module the lines where each bare name is loaded."""
    qualified, loads = set(), {}
    for module, tree in trees.items():
        loads[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[module].setdefault(node.id, []).append(node.lineno)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                qualified.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                qualified.update((node.module, alias.name)
                                 for alias in node.names)
    return qualified, loads


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    qualified, loads = _uses(trees)
    uncalled = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            outside = [line for line in loads[module].get(node.name, ())
                       if not node.lineno <= line <= node.end_lineno]
            if not outside and (module, node.name) not in qualified:
                uncalled.add(f"{module}.{node.name}")
    assert sorted(uncalled) == []


def _run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)


def test_pipeline_import_leaves_out_scipy_signal():
    # scipy serves only the test oracles (tests/oracles.py); importing
    # scipy.signal cost every process about 50 MB and 1 s, scipy.ndimage
    # about 18 MB
    proc = _run_python("import sys, radroute.pipeline; "
                       "print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reproduce_runs_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every scipy import raise, so exit 0
    # means that no stage of a gate-9 reproduce loads scipy
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GATE9_CONFIG))
    proc = _run_python("import sys; sys.modules['scipy'] = None; "
                       "from radroute.cli import main; "
                       "sys.exit(main(sys.argv[1:]))",
                       "--config", str(config), "--out",
                       str(tmp_path / "run"), "reproduce")
    assert proc.returncode == 0, proc.stderr

"""Layout guards: no public `src/` code and no option without a caller in
`src/`, one activation layout, and no test-only dependency (scipy) in the
package's import graph or in any stage of a run.

Every public module-level function or class of `radroute` must be named
somewhere in `src/` outside its own definition: loaded by name in its own
module, read as `module.name`, or imported with `from .module import name`.
A mention in a docstring or comment does not count, and nothing is exempt:
code that only tests call lives in `tests/oracles.py`.

Every defaulted parameter of a function or method, and every defaulted
dataclass field (`default_factory` included), must be set by some call in
`src/` and left in place by another: an option is a value that two
callers need to differ. Calls are matched by callee name (`f(...)`,
`obj.f(...)`, a local alias `g = mod.f` then `g(...)`, and a class name
for its `__init__` or its dataclass fields); a keyword, a positional
argument that reaches the parameter, and any `*args` or `**kwargs` count
as setting it. A field also counts as set when `src/` assigns to it as an
attribute. A value only tests set is a constant, which tests reach by
monkeypatch; a value every `src/` call sets has no default, and the
settings of a run live in `pipeline.DEFAULT_CONFIG`. The one caller
outside `src/` is a `[project.scripts]` entry point of `pyproject.toml`,
which calls its function with no arguments; nothing else is exempt.

Layers exchange channel-last (N, H, W, C) arrays, so no `src/` code
permutes between that and channel-first (N, C, H, W): a `transpose` by
(0, 3, 1, 2) or (0, 2, 3, 1) appears only in `numeric.Flatten`, which
orders the audio CNN's features channel-first. Transposes of the
(O, C, k, k) weights are other permutations and stay allowed.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from typing import NamedTuple

from test_acceptance import GATE9_CONFIG

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radroute"

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


class _Option(NamedTuple):
    label: str       # module.Class.function(parameter) or module.Class.field
    callees: tuple   # names a call setting it is made through
    name: str        # the keyword that sets it
    position: int | None  # index among a call's positional arguments
    field: bool      # a dataclass field, also set by an attribute store


def _decorator_names(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        yield target.attr if isinstance(target, ast.Attribute) else target.id


def _function_options(label, node, callees, offset):
    """Defaulted parameters of a def whose calls pass `offset` leading
    positional parameters implicitly (self or cls)."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield _Option(f"{label}({arg.arg})", callees, arg.arg, i - offset,
                      False)
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield _Option(f"{label}({arg.arg})", callees, arg.arg, None,
                          False)


def _class_options(label, node):
    """Defaulted fields of a dataclass (plain and default_factory); a
    construction passes fields positionally in declaration order."""
    fields = [stmt for stmt in node.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and "ClassVar" not in ast.unparse(stmt.annotation)]
    for i, stmt in enumerate(fields):
        if stmt.value is not None:
            yield _Option(f"{label}.{stmt.target.id}", (node.name,),
                          stmt.target.id, i, True)


def _options(trees):
    """Every defaulted parameter of a function or method, and every
    defaulted dataclass field, defined in the trees."""
    options = []

    def visit(node, label, cls=None):
        for child in ast.iter_child_nodes(node):
            name = f"{label}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.ClassDef):
                if "dataclass" in _decorator_names(child):
                    options.extend(_class_options(name, child))
                visit(child, name, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callees = (child.name,)
                if cls is not None and child.name == "__init__":
                    callees += (cls.name,)
                bound = (cls is not None
                         and "staticmethod" not in _decorator_names(child))
                options.extend(_function_options(name, child, callees,
                                                 int(bound)))
                visit(child, name)
            else:
                visit(child, label, cls)

    for module, tree in trees.items():
        visit(tree, module)
    return options


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _class_calls(tree):
    """{id of each call of a classmethod's first parameter, as
    `cls(...)`: the name of the method's class}."""
    found = {}
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for cls in classes:
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef) and method.args.args
                    and "classmethod" in _decorator_names(method)):
                first = method.args.args[0].arg
                found.update((id(node), cls.name)
                             for node in ast.walk(method)
                             if isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Name)
                             and node.func.id == first)
    return found


def _settings(trees):
    """What the trees set: for each callee name, the (keywords, count of
    positional arguments, star, double star) of every call made through
    it, resolving a local alias such as `conv = numeric.Conv2d` and a
    classmethod's `cls(...)` to its class; and the attribute names that
    are assigned."""
    aliases, calls, stores, classes = {}, [], set(), {}
    for tree in trees.values():
        classes.update(_class_calls(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _callee(node.value) is not None):
                aliases[node.targets[0].id] = _callee(node.value)
            elif isinstance(node, ast.Call):
                calls.append(node)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                stores.add(node.attr)
    settings = {}
    for call in calls:
        name = classes.get(id(call), _callee(call.func))
        entry = ({k.arg for k in call.keywords if k.arg is not None},
                 sum(not isinstance(a, ast.Starred) for a in call.args),
                 any(isinstance(a, ast.Starred) for a in call.args),
                 any(k.arg is None for k in call.keywords))
        for callee in {name, aliases.get(name)} - {None}:
            settings.setdefault(callee, []).append(entry)
    return settings, stores


def _sets(option, call):
    """Whether a call, as _settings records it, sets the option."""
    keywords, n_positional, star, double_star = call
    return (double_star or option.name in keywords
            or (option.position is not None
                and (star or 0 <= option.position < n_positional)))


def _calls(option, settings):
    """The recorded calls made through any of the option's callees."""
    return [call for callee in option.callees
            for call in settings.get(callee, ())]


def _unset(trees):
    """Options that no call sets and, for a field, no attribute store."""
    settings, stores = _settings(trees)
    return sorted(option.label for option in _options(trees)
                  if not (option.field and option.name in stores)
                  and not any(_sets(option, call)
                              for call in _calls(option, settings)))


def _overridden(trees, entry_points=()):
    """Options that every call sets: no call leaves the default in place,
    unless the option is a parameter of an entry point (module.function),
    which is called with no arguments."""
    settings, _ = _settings(trees)
    return sorted(option.label for option in _options(trees)
                  if option.label.split("(")[0] not in entry_points
                  and all(_sets(option, call)
                          for call in _calls(option, settings)))


def _entry_points():
    """module.function of each [project.scripts] entry point, read line by
    line, as Python 3.10 has no tomllib."""
    points, section = [], None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            module, function = line.split("=", 1)[1].strip(" \"'").split(":")
            points.append(f"{module.removeprefix('radroute.')}.{function}")
    return points


def test_every_default_is_set_by_a_call_in_src():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert _unset(trees) == []


def test_every_default_is_left_in_place_by_a_call_in_src():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert _entry_points() == ["cli.main"]
    assert _overridden(trees, _entry_points()) == []


def test_default_guard_on_a_synthetic_module():
    source = textwrap.dedent("""
        from dataclasses import dataclass, field

        @dataclass
        class Config:
            size: int
            by_position: int = 1
            unset_plain: int = 2
            unset_factory: list = field(default_factory=list)
            by_keyword: int = 3
            by_store: int = 4

        class Layer:
            def __init__(self, width, by_class_call=0):
                pass

            def run(self, x, unset_param=None, *, by_kw=2):
                pass

        def helper(a, unset_param=0):
            pass

        def spread(a, by_star=1, by_double_star=2):
            pass

        def always_set(a, overridden=0):
            pass

        def sometimes_set(a, left_by_one=0):
            pass

        def main(argv=None):
            pass

        @dataclass
        class Bank:
            bands: list
            by_cls_call: int = 4

            @classmethod
            def design(cls, n):
                return cls(list(range(n)), by_cls_call=n)

        def caller(cfg, options):
            Config(5, 1, by_keyword=1)
            cfg.by_store += 1
            layer = Layer
            obj = layer(4, 1)
            obj.run(1, by_kw=3)
            helper(1)
            spread(*options)
            spread(1, **options)
            always_set(1, 2)
            always_set(1, overridden=3)
            sometimes_set(1)
            sometimes_set(1, left_by_one=2)
            main(["--help"])
            Bank.design(3)
            Bank([1])
        """)
    trees = {"m": ast.parse(source)}
    assert _unset(trees) == [
        "m.Config.unset_factory", "m.Config.unset_plain",
        "m.Layer.run(unset_param)", "m.helper(unset_param)"]
    overridden = ["m.Config.by_keyword", "m.Config.by_position",
                  "m.Layer.__init__(by_class_call)", "m.Layer.run(by_kw)",
                  "m.always_set(overridden)", "m.spread(by_double_star)",
                  "m.spread(by_star)"]
    assert _overridden(trees, ("m.main",)) == overridden
    assert _overridden(trees) == sorted(overridden + ["m.main(argv)"])


# channel-last to channel-first, and back
ACTIVATION_PERMUTATIONS = ((0, 3, 1, 2), (0, 2, 3, 1))


def _activation_transposes(trees):
    """module.Class.function:line of every call of a `transpose` method or
    function by one of ACTIVATION_PERMUTATIONS, given as arguments or as
    one tuple or list."""
    found = []

    def visit(node, label):
        for child in ast.iter_child_nodes(node):
            name = label
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{label}.{child.name}"
            elif (isinstance(child, ast.Call) and _callee(child.func)
                    == "transpose" and child.args):
                axes = child.args
                if isinstance(axes[-1], (ast.Tuple, ast.List)):
                    axes = axes[-1].elts
                if tuple(getattr(a, "value", None)
                         for a in axes) in ACTIVATION_PERMUTATIONS:
                    found.append(f"{name}:{child.lineno}")
            visit(child, name)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_only_flatten_permutes_activations():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert [site for site in _activation_transposes(trees)
            if not site.startswith("numeric.Flatten.")] == []


def test_permutation_guard_on_a_synthetic_module():
    source = textwrap.dedent("""
        import numpy as np

        class Flatten:
            def forward(self, x):
                return x.transpose(0, 3, 1, 2).reshape(len(x), -1)

        def layer(x, w):
            a = x.transpose(0, 2, 3, 1)
            b = np.transpose(x, (0, 3, 1, 2))
            c = x.transpose([0, 2, 3, 1])
            return w.transpose(2, 3, 1, 0), x.transpose(0, 1, 3, 2)
        """)
    assert _activation_transposes({"m": ast.parse(source)}) == [
        "m.Flatten.forward:6", "m.layer:9", "m.layer:10", "m.layer:11"]


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

"""Layout guard: no public `src/` code without a caller in `src/`.

Every public module-level function or class of `radroute` must be named
somewhere in `src/` outside its own definition: loaded by name in its own
module, read as `module.name`, or imported with `from .module import name`.
A mention in a docstring or comment does not count. Only the test oracles
below are exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "radroute"

TEST_ORACLES = {
    "dsp.spectrogram": "per-clip oracle for the batched spectrogram images",
    "dsp.mel_spectrogram": "gate 1's mel oracle; per-clip oracle for the "
                           "batched mel images",
    "dsp.gammatonegram_fast": "per-clip oracle for the batched gammatone "
                              "images",
    "dsp.gammatonegram_direct": "gate 1's time-domain oracle for "
                                "gammatonegram_fast",
    "fusion.load_labeled_trajectory_csv": "round-trip oracle for "
                                          "save_labeled_trajectory_csv",
    "numeric.gradcheck": "gate 3's central-difference gradient check",
    "numeric.Upsample2x": "gradchecked by gate 3; with channel concatenation "
                          "and Conv2d, the oracle of UpsampleConcatConv2d",
    "numeric.masked_binary_cross_entropy": "reference for "
                                           "masked_bce_with_logits; the loss "
                                           "gate 3 gradchecks UNet.forward "
                                           "with",
}


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
    # the symmetric difference also catches a stale exemption: an oracle
    # that was removed or has since gained a caller
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
    assert sorted(uncalled ^ set(TEST_ORACLES)) == []

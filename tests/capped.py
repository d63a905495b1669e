"""Python code run in a child process whose address space is capped.

A reader or loader that allocates what a damaged header declares fails
there with MemoryError, instead of taking the memory of the host. The
child runs as pytest's own tests do (RuntimeWarning is an error, as
pyproject.toml sets it), imports the package from this checkout's `src/`,
and runs BLAS on one thread, whose per-thread buffers would otherwise
count against the cap while numpy is imported.
"""

import os
import pathlib
import subprocess
import sys

CAP_BYTES = 512 << 20

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PRELUDE = ("import resource\n"
           f"resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, "
           f"{CAP_BYTES}))\n")


def run_capped(code: str, *argv, timeout: float = 300):
    """The finished `python -c code argv...`, capped at CAP_BYTES, with
    its output captured as text."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", PRELUDE + code,
         *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=timeout)

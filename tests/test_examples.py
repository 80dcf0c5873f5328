"""Every script under ``examples/`` runs to completion.

Each example asserts its own verdicts, so exit status 0 is the check.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))

#: Examples that write files take a work directory; table1 runs small.
WORKDIR_EXAMPLES = {"aig_flow.py", "bench_file_flow.py"}
EXTRA_ARGS = {"table1.py": ["--quick"]}


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path, tmp_path):
    name = os.path.basename(path)
    args = list(EXTRA_ARGS.get(name, []))
    if name in WORKDIR_EXAMPLES:
        args.append(str(tmp_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, path] + args, cwd=str(tmp_path),
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

import ast
import subprocess
import sys
from pathlib import Path

import stirling_complexes

PACKAGE_DIR = Path(stirling_complexes.__file__).resolve().parent


def test_import_loads_no_process_pool():
    """The package starts no process pool, and importing it (or its CLI) must
    not load the pool module, ``concurrent.futures.process``, either."""
    probe = (
        "import sys, stirling_complexes, stirling_complexes.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE_DIR.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_no_assert_statements_in_the_package():
    """Correctness checks must survive ``python -O``, which strips asserts."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []

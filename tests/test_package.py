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


def test_zero_cell_boundary_survives_optimize():
    """Under ``python -O``, which strips asserts, a cell outside the complex
    (vertex 2 of P3 is bare) is still rejected by ``is_valid_move`` and fails
    ``verify_plan`` at the start."""
    probe = (
        "from stirling_complexes import (Cell, ColorVector, ComplexSpec, Move, MovePlan,\n"
        "    generate_named, is_valid_move, verify_plan)\n"
        "spec = ComplexSpec(generate_named('path', 3), ColorVector((2, 2, 1)))\n"
        "bad = Cell.make([(0, 1), (0, 1), (0,)])\n"
        "try:\n"
        "    is_valid_move(spec, bad, Move(0, 1, 2))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
        "print(verify_plan(MovePlan(spec, bad, (), None)).failed_at)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        cwd=PACKAGE_DIR.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == ["rejected", "0"]


def test_no_assert_statements_in_the_package():
    """Correctness checks must survive ``python -O``, which strips asserts."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []

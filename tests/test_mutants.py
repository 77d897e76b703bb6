"""The rows of the mutation audit (tools/mutants.py) stay current with the code and the tests they name."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_string_occurs_once_in_its_file():
    assert mutants.stale(enumerate(mutants.MUTANTS, start=1)) == []


def test_every_named_test_is_collected():
    named = sorted({test for row in mutants.MUTANTS for test in row.tests})
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    collected = {line for line in run.stdout.splitlines() if "::" in line}
    assert all(any(item == test or item.startswith(test + "[") for item in collected) for test in named)

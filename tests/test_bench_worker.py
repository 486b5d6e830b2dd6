"""Each benchmark workload runs once and passes its own output checks.

bench/worker.py reads the program through its public names (report fields,
trace attributes, CLI options); a change that removes one of them fails here
instead of only when the benchmark itself runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.mark.parametrize("workload", ["oracle", "atlas", "divisors"])
def test_one_repetition_passes_its_checks(workload, tmp_path):
    run = subprocess.run(
        [sys.executable, str(WORKER), workload, "1", "0", "0", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["problems"] == []

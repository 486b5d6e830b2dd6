"""Smoke tests of the two scripts under scripts/, run as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wahlkit.cli import main

ROOT = Path(__file__).resolve().parent.parent

# stdout of `survey_bad_curves.py --max-len 4` after its timing line
SURVEY_4 = """\
verdicts: {'DIES': 550, 'SURVIVES_BAD': 10}
  NO_MINUS_ONE         310
  MAGIC_E              306
  MULTI_EDGE           192
  SW                   178
  PATTERN_SINGLE       124
  PATTERN_ENDPOINTS    96
  CYCLE                72
  MAGIC_FULL           62
  ZERO_INCIDENCE       28
  THREE_NEIGHBOR       16

10 surviving bad curves:
  ell=3: 2
  ell=4: 8
  [2, 5, 3] B1 internal=[1] e_hits=[1, 2] case=B1.1
  [3, 5, 2] B2 internal=[3] e_hits=[2, 3] case=B2.1
  [2, 2, 5, 4] B1 internal=[1] e_hits=[1, 3] case=B1.1
  [2, 2, 5, 4] B1 internal=[1, 2] e_hits=[2, 4] case=B1.3
  [2, 3, 5, 3] B1 internal=[1] e_hits=[1, 3] case=B1.1
  [2, 6, 2, 3] B1 internal=[1] e_hits=[1, 2] case=B1.1
  [3, 2, 6, 2] B2 internal=[4] e_hits=[3, 4] case=B2.1
  [3, 5, 3, 2] B2 internal=[4] e_hits=[2, 4] case=B2.1
  [4, 5, 2, 2] B2 internal=[3, 4] e_hits=[1, 3] case=B2.3
  [4, 5, 2, 2] B2 internal=[4] e_hits=[2, 4] case=B2.1

family [2,..,2,ell+3] survivors by length:
  ell=1: corrected=0 reversed=0
  ell=2: corrected=0 reversed=0
  ell=3: corrected=0 reversed=0
  ell=4: corrected=0 reversed=0

oracle passed: True
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_build_atlas_prints_what_wahlkit_atlas_prints(capsys):
    assert main(["atlas", "--max-len", "6"]) == 0
    expected = capsys.readouterr().out
    done = run_script("build_atlas.py", "--max-len", "6")
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
    per_length = [line for line in done.stderr.splitlines() if line.startswith("#   ell=")]
    assert len(per_length) == 6


def test_survey_bad_curves_passes_and_prints_the_pinned_survivors():
    done = run_script("survey_bad_curves.py", "--max-len", "4")
    assert done.returncode == 0, done.stderr
    timing, rest = done.stdout.split("\n", 1)
    assert timing.startswith("examined 560 candidates in ")
    assert rest == SURVEY_4


@pytest.mark.parametrize("script,max_len,allowed", [
    ("survey_bad_curves.py", "9", "1..8"),
    ("survey_bad_curves.py", "0", "1..8"),
    ("build_atlas.py", "0", "1..16"),
    ("build_atlas.py", "-3", "1..16"),
    ("build_atlas.py", "17", "1..16"),
])
def test_an_out_of_range_max_len_is_a_usage_error(script, max_len, allowed):
    done = run_script(script, "--max-len", max_len)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: --max-len must be in {allowed}, got {max_len}" in done.stderr
    assert "Traceback" not in done.stderr

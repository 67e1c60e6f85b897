"""The outputs of the benchmark's run and sweep operations, and the self-test
rows, at seed 5 against their checked-in digests.

``tests/golden/seed5.json`` is the output of ``tools/output_digests.py`` for
this checkout at seed 5.  A change that alters an output on purpose
regenerates it (see that script's docstring)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "seed5.json"


def test_outputs_match_the_golden_digests(monkeypatch):
    # loading the script turns bytecode writing off, and its run prepends
    # src and bench to the import path; both are restored after the test
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    golden = json.loads(GOLDEN.read_text())
    here = tool.environment()
    for name, value in here.items():
        if golden["environment"].get(name) != value:
            pytest.skip(f"the golden digests were made with {name} "
                        f"{golden['environment'].get(name)}, not {value}")
    try:
        assert tool.output_digests(ROOT, 5) == golden
    finally:
        sys.modules.pop("workloads", None)

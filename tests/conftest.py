"""Session fixtures shared by the test modules."""

import json
from dataclasses import dataclass

import pytest

from phasemono import cli


@dataclass(frozen=True)
class SelftestRun:
    """Exit code and parsed ``selftest.json`` of one ``graph-selftest`` run."""

    code: int
    payload: dict

    def rows(self, suite, variant):
        """The rows of one graph or potential, keyed by property."""
        return {r["property"]: r for r in self.payload["results"]
                if r["suite"] == suite and r["variant"] == variant}


@pytest.fixture(scope="session")
def selftest_run(tmp_path_factory):
    """``graph-selftest`` run once per session; the property tests assert on
    its rows instead of running the suites again."""
    out = tmp_path_factory.mktemp("selftest")
    code = cli.main(["graph-selftest", "--out", str(out)])
    return SelftestRun(code, json.loads((out / "selftest.json").read_text()))

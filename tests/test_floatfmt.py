"""The float table kernel writes exactly the bytes of str, cell for cell.

About 1.2 million seeded doubles go through the production path,
``cli._csv_lines``, in tables of 1000 columns, and every line is compared
with ``",".join(map(str, row.tolist()))``.  The module adds about 2 s to
tier-1 on a 2-core host, most of it in the str reference.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasemono
from phasemono import cli

WIDTH = 1000


def _bits(rng):
    """Random bit patterns over the whole range: NaNs, infinities,
    subnormals and every exponent."""
    return rng.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False).view(np.float64)


def _normals(rng):
    """Normal draws scaled across 40 decades."""
    return rng.standard_normal(300_000) * 10.0 ** rng.uniform(-20.0, 20.0, 300_000)


def _short(rng):
    """Short decimals: up to 7 digits, scaled by 10^0 to 10^-11."""
    return rng.integers(-10**7, 10**7, 300_000) / 10.0 ** rng.integers(0, 12, 300_000)


def _integers(rng):
    """Integers up to 2^63, above 2^53 rounded to the nearest double."""
    return rng.integers(-2**63, 2**63, 300_000, dtype=np.int64, endpoint=False).astype(np.float64)


def _structured(rng):
    """Powers of ten and two with their neighbours, signed zeros, infinities,
    NaN, the least and largest floats, and repr's switch points from fixed
    to exponent notation, each with its neighbours."""
    tens = 10.0 ** np.arange(-323, 309)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    switch = np.array([1e-4, 1e-5, 1e16, 1e17])
    edges = np.concatenate([tens, twos, switch])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                        np.finfo(np.float64).max, np.finfo(np.float64).tiny])
    return np.concatenate([near, -near, special])


def _table(values):
    """The values as rows of WIDTH cells, the last row padded with 1.5."""
    pad = -len(values) % WIDTH
    return np.concatenate([values, np.full(pad, 1.5)]).reshape(-1, WIDTH)


@pytest.mark.parametrize("family", [_bits, _normals, _short, _integers, _structured],
                         ids=lambda f: f.__name__[1:])
def test_every_line_is_the_str_line(family):
    table = _table(family(np.random.default_rng(2024)))
    assert np.count_nonzero(table) >= cli._KERNEL_CELLS      # the kernel formats it
    for row, line in zip(table.tolist(), cli._csv_lines(table)):
        assert line == (",".join(map(str, row)) + "\n").encode("ascii")


def test_importing_the_cli_builds_no_table():
    # the kernel's tables are built on its first call, not at import
    code = ("import phasemono.cli, phasemono._floatfmt as f; "
            "print(f._tables.cache_info().currsize, f._layouts.cache_info().currsize)")
    src = str(Path(phasemono.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0"]

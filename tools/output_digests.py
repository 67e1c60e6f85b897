"""Print the SHA-256 of every deterministic output of the benchmark's run
and sweep operations, and of the self-test rows, for one source tree.

    python tools/output_digests.py SRC_ROOT SEED

SRC_ROOT is the root of a checkout.  Its ``src/phasemono`` is imported, and
its ``bench/workloads.py`` builds the operations of every workload at SEED;
each run and sweep operation then runs once, in this process, in a
temporary directory.  The JSON object printed maps ``KEY/FILE`` (say
``tanh_front/trajectory.csv`` or ``sweep_eps/sweep.csv``) to the digest of
that file, and ``selftest`` to the digest of ``run_selftest(SEED)``'s rows.
Its ``environment`` entry names what the floats' bits may depend on: the
Python and numpy versions, the BLAS numpy was built with and its version,
and the machine type.  On one machine, two trees write the same bytes
exactly when their objects are equal:

    python tools/output_digests.py OLD_CHECKOUT 5 > old.json
    python tools/output_digests.py . 5 > new.json
    diff old.json new.json

``tests/golden/seed5.json`` holds this script's output for the checkout at
seed 5, and a test compares a fresh run with it wherever the environment
matches.  A change that alters an output on purpose regenerates it:

    python tools/output_digests.py . 5 > tests/golden/seed5.json

An operation that exits nonzero stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

# importing the checkout's modules leaves no bytecode cache in it
sys.dont_write_bytecode = True

DIGESTED = ("trajectory.csv", "plot.csv", "report.json", "sweep.json", "sweep.csv")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _import_tree(root):
    """Import phasemono from ``root/src`` and the workloads module from
    ``root/bench``; refuse either one found anywhere else."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import phasemono
    import workloads

    for module, home in ((phasemono, "src"), (workloads, "bench")):
        if not Path(module.__file__).resolve().is_relative_to(root / home):
            raise SystemExit(f"{module.__name__} imported from {module.__file__}, "
                             f"not from {root / home}")
    return workloads


def environment():
    """The versions and machine type that the output digests may depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def output_digests(root, seed):
    """The digests of one tree's outputs at ``seed``, as printed."""
    workloads = _import_tree(Path(root).resolve())
    digests, done = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, seed, Path(tmp) / workload):
                # the self-test has no output directory; a repeated op is skipped
                if op.out is None or op.key in done:
                    continue
                done.add(op.key)
                # the command's messages go to stderr, beside its own
                with contextlib.redirect_stdout(sys.stderr):
                    code = op.call(lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
                if code != 0:
                    raise SystemExit(f"{op.key}: exit code {code}")
                for name in DIGESTED:
                    if (op.out / name).exists():
                        digests[f"{op.key}/{name}"] = _sha256((op.out / name).read_bytes())
    rows = workloads.selftest.run_selftest(seed=seed)
    # json writes each float as its repr, which names its bits
    table = [[r.suite, r.variant, r.prop, bool(r.passed), float(r.worst), r.detail]
             for r in rows]
    digests["selftest"] = _sha256(json.dumps(table).encode())
    digests["environment"] = environment()
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_root", type=Path, help="root of the checkout to digest")
    parser.add_argument("seed", type=int, help="the workloads' seed")
    args = parser.parse_args(argv)
    print(json.dumps(output_digests(args.src_root, args.seed), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

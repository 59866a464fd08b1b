"""Write expected.json: the default-seed chi digests and fitted parameters.

    python3 perfbench/record_expected.py

Run from the repository root, and only for a change that is meant to
alter these outputs; say so in CHANGES.md.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# The same one-thread BLAS pools as run.py, so the pinned fits match its runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402  (needs the src path above)


def main() -> None:
    expected = {}
    workdir = HERE / "out" / "record-expected"
    try:
        for name, cls in workloads.WORKLOADS.items():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            w = cls(workloads.DEFAULT_SEED, workdir)
            w.make_inputs()
            bad = [o for o in w.run_pass(workdir / "pass") if not o.ok]
            if bad:
                sys.exit(f"{name}: {bad}")
            expected[name] = w.observed(workdir / "pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

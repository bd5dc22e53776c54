"""Record the reference outputs of the default seed.

    python3 bench/record_reference.py

Runs every input of every workload once, untimed, and writes the
reference-comparable view of each output to ``reference_seed0.json``.
Re-record only when an output is meant to change, and say why in the
change that does it: the benchmark counts every op whose output differs
from this file as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORK_ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        try:
            workload = cls(DEFAULT_SEED, workdir)
            outputs = []
            for item in workload.items:
                out = workload.run(item)
                problems = workload.invariants(item, out)
                if problems:
                    raise SystemExit(f"{name} {item.label}: {problems}")
                outputs.append(json.loads(json.dumps(workload.summary(item, out))))
            reference[name] = outputs
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(outputs)} outputs")
    path = HERE / "reference_seed0.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write refs.json: the reference output digest of every workload variant.

    python3 perfbench/make_refs.py

Run from the root of a source checkout whose output is the reference; the
benchmark then accepts an output only if it matches these digests.  Every
line must parse as JSON and every run must exit 0.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    refs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        for workload in run.WORKLOADS:
            refs[workload] = []
            for variant in range(run.VARIANTS):
                args = run.cli_args(workload, variant)
                rep = run.run_child(root, Path(tmp), args, False, 600.0)
                if rep["code"] != 0:
                    print(f"{workload} variant {variant} failed:\n"
                          f"{rep['stderr']}", file=sys.stderr)
                    return 1
                ref = run.digest(rep["stdout"])
                print(workload, variant, ref, file=sys.stderr)
                refs[workload].append(ref)
    run.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

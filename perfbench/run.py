"""End-to-end benchmark of the weak-set, consensus and columnar layers.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload weakset_steady --seed 1 --seconds 25 --trace 0

``--trace 0`` measures whole episodes until ``--seconds`` of timed work
have run and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of episodes in alternating untraced and traced passes and prints
the per-layer metrics, the tracing overhead and the remainder no layer
accounts for; the spans of the first traced pass go to
``.perfbench_out/`` under the checkout root.

Standard output ends with two JSON lines: a record of the run (shape,
host, sample counts) and the result, with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The process exits 1 when an
output failed its check, and 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path and import from it
    only; a ``repro`` found anywhere else is not the program under test."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {src}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    from measure import end_to_end, per_layer
    from repro.core.columnar import default_backend
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tally, metrics, record = per_layer(workload, args.seed, spans_path)
    else:
        tally, metrics, record = end_to_end(workload, args.seed, args.seconds)

    header: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "shape": workload.shape,
        "nproc": os.cpu_count(),
        "columnar_backend": default_backend(),
        **record,
    }
    print(json.dumps(header))
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

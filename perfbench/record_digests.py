"""Record the sha256 of every CSV/JSON file the workloads' CLI ops write.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``, keyed by the op's CLI arguments, for
seeds 0..SEEDS-1 (only ``kms`` calls depend on the seed).  Traced benchmark
runs count the files that no longer match as ``cli.output_digest_changes``.
Run it at the reference commit with the machine's default BLAS threads:
``garding`` output bytes depend on the BLAS thread count.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

SEEDS = 64


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    root = Path(__file__).resolve().parent
    build = root.parent / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        scratch = Path(tmp)
        for seed in range(SEEDS):
            for name in workloads.WORKLOADS:
                for op in workloads.build(name, seed):
                    if not op.argv or op.key in digests:
                        continue
                    failures, _ = op.check(scratch, op.call(scratch))
                    if failures:
                        print(f"{op.key}: {failures}", file=sys.stderr)
                        return 1
                    digests[op.key] = op.digests(scratch)
    (root / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())

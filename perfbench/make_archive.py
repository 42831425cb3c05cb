"""Regenerate the committed skew0 A(j) archive the archive-skew0 workload reads.

Run from the repository root:

    python3 perfbench/make_archive.py [--out PATH]

It runs the exhaustive oracle (TRUE semantics) on the tier-1 skew0 context,
which takes one to two minutes on one core, writes the archive with fixed
zip timestamps and prints its file sha256, content digest and RA. The
workload refuses to run unless the committed file's sha256 equals
``skew0_archive.sha256`` in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import bench_env

bench_env.require_source()

from resacc.microdnn import FaultSemantics  # noqa: E402
from resacc.oracle import exhaustive_ra  # noqa: E402

import subjects  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=subjects.SKEW0_ARCHIVE)
    args = ap.parse_args()
    s = subjects.skew0()
    t0 = time.perf_counter()
    result, archive = exhaustive_ra(
        s.profile, s.config, s.net, s.evalset, FaultSemantics.TRUE, max_inferences=3 * 10**6
    )
    elapsed = time.perf_counter() - t0
    subjects.save_archive_reproducibly(archive, args.out)
    print(json.dumps({
        "file": str(args.out),
        "sha256": subjects.file_sha256(args.out),
        "digest": subjects.archive_digest(archive),
        "ra": result.ra,
        "oracle_s": round(elapsed, 1),
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

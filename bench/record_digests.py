"""Record the sha256 of the report of every command any seed can produce.

usage: python3 bench/record_digests.py [WORKLOAD ...]

Runs every variant of every slot once, untraced, checks each report,
and rewrites digests.json.  A traced run reports cli.reports_changed
against this file, so record it again only when a change to the
reports is intended.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import corpus
from run import BENCH, ROOT, failure, run_child, write_corpus

DEADLINE = 60  # recording is not timed, so a hang may take longer to show


def record(workload, work):
    commands = corpus.all_variants(workload)
    digests = {}
    for cmd, path in zip(commands, write_corpus(commands, work / workload)):
        result = run_child(cmd.argv, path, DEADLINE)
        reason = failure(cmd, result, DEADLINE)
        if reason:
            raise SystemExit(f"{workload} {cmd.key}: {reason}")
        digests[cmd.key] = hashlib.sha256(result.stdout).hexdigest()
    return digests


def main(workloads):
    path = BENCH / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=ROOT / ".bench_work"))
    try:
        for workload in workloads or sorted(corpus.WORKLOADS):
            stored[workload] = record(workload, work)
            print(f"{workload}: {len(stored[workload])} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Write digests.json: digests of known-good outputs for the stored seeds.

    python3 bench/record_digests.py

Run it from the root of a checkout whose outputs are right (every check in
check.py passes); it overwrites bench/digests.json.  An operation that fails
gets no output digest, so its output is then checked by check.py alone.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import run

FILE_SEEDS = range(11)


def record(ops: list) -> dict:
    out = {}
    for op in ops:
        try:
            result = op.call()
        except (run.DeadlineExceeded, Exception):
            continue
        text = op.render(result)
        if op.check(result, text) is None:
            out[op.label] = run.digest(text)
    return out


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    signal.signal(signal.SIGPROF, run._on_deadline)
    digests = {w: record(run.make_ops(w, 0, {})[0]) for w in ("paper", "scale")}
    digests["files"] = {}
    run._BUDGET.install()
    for key, part in [("core", None)] + [(str(seed), seed) for seed in FILE_SEEDS]:
        sources = run.file_sources(part)
        digests["files"][key] = {
            "sources": run.sources_digest(sources),
            "outputs": record(run.source_ops(sources, {}, run.OUT_DIR / f"files-{key}")),
        }
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

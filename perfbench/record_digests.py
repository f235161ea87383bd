"""Record the digests of each workload's first jobs for a range of seeds.

    python3 perfbench/record_digests.py [workload ...]   # seeds 0-31 and the held-out seed

Runs the first ``DIGEST_JOBS`` jobs of every (workload, seed),
checks each output as a timed run would, and writes their digests to
perfbench/digests.json.  A later run on a recorded seed fails if any of
those exact outputs changes, so re-record only when a change to the
benchmark itself alters the jobs, never to absorb a changed result.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import harness
import run

SEEDS = [*range(32), run.HELD_OUT_SEED]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    path = Path(__file__).parent / "digests.json"
    recorded: dict[str, dict[str, list[str]]] = json.loads(path.read_text()) if path.is_file() else {}
    for name in sys.argv[1:] or run.WORKLOADS:
        module = run.WORKLOADS[name]
        wl = importlib.import_module(module)
        state = wl.setup()
        recorded[name] = {}
        for seed in SEEDS:
            digests = []
            span = harness.NoTracer().span
            for i in range(wl.DIGEST_JOBS):
                job = wl.make_job(state, seed, i)
                out = wl.run_job(state, job, span)
                error = wl.check(job, out, span)
                if error is not None:
                    print(f"{name} seed {seed} job {i}: {error}", file=sys.stderr)
                    return 1
                digests.append(harness.digest(wl, job, out))
            recorded[name][str(seed)] = digests
        print(f"{name}: {len(SEEDS)} seeds", file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write golden_study_cli.json: digests of every study-cli command at this tree.

    python3 perfbench/golden.py

Run it only at a commit whose outputs are known to be right; the study-cli
gate compares every later pass against these digests.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.cap_threads()
    run.use_checkout_sources()
    import workloads

    digests = workloads.study_digests(run.OUT / "work")
    payload = {"commit": run.git_commit(), "digests": digests}
    workloads.GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN}")


if __name__ == "__main__":
    main()

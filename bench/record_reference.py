"""Record the reference table that ``run.py`` checks at the default seed.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: for every workload, the estimates of study
0 at the default seed (floats round-trip exactly through JSON) and the
SHA-256 of its 17-digit estimates CSV. A run at the default seed must agree
with it to 1e-9 relative. Re-record only when a change is meant to move
the estimates by more than that, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import re
import sys

from run import BENCH, BLAS_THREADS, BLAS_VARS, DEFAULT_SEED, SRC


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name)
        study = wl.run_study(workloads.study_seed(name, DEFAULT_SEED, 0))
        table[name] = {"n": wl.n, "study_reps": wl.study_reps,
                       "columns": list(wl.columns),
                       "csv_sha256": study.csv_sha256,
                       "estimates": study.estimates.tolist()}
    doc = {"default_seed": DEFAULT_SEED, "workloads": table}
    text = json.dumps(doc, indent=1)
    # one estimates row per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    (BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

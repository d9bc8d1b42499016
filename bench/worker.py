"""One benchmark operation in a fresh process.

    python3 bench/worker.py <job.json>

The job file names the workload, its inputs, an output directory and
the file to write the result to. The worker imports ``legnet.cli``
first, notes the monotonic clock (the parent turns that into
``setup_s``), runs the operation and records ``run_s`` and the
process's peak resident set. The parent sets PYTHONPATH so that
``legnet`` resolves to the checkout's ``src``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    import legnet.cli

    imported = time.monotonic()
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if not legnet.__file__.startswith(job["src"]):
        print(f"legnet imported from {legnet.__file__}, not {job['src']}",
              file=sys.stderr)
        return 3

    import workloads

    start = time.perf_counter()
    records, code = workloads.run_op(job["kind"], job["argv"], Path(job["inputs"]))
    run_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"imported": imported, "run_s": run_s, "exit_code": code,
              "peak_rss_mb": peak_kib / 1024.0, "records": records}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

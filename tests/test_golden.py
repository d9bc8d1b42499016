"""Same outputs: the manifest digests of five seeded runs, against a record.

Each command runs in a fresh process, once with one BLAS thread and
once with two, on the benchmark generator's seed-1 inputs; the runs in
ONE_THREAD_RUNS are checked at one thread only. Every file
the run writes must have the digest that `golden_outputs.json` holds
for it. The record is only meaningful for the numpy, scipy and BLAS
builds that made it, so under other versions the test skips and names
both sets.

A change that alters outputs on purpose re-records them in the same
commit, and says in CHANGES.md which files changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legnet

from conftest import gen

RECORD = Path(__file__).with_name("golden_outputs.json")
GENERATOR_SEED = 1

# The runs, by name; {inputs} is the generator's output directory. The
# report takes the arguments of the benchmark's report-congress workload.
COMMANDS = {
    "report": ["report", "--edges", "{inputs}/congress_edges.csv",
               "--attrs", "{inputs}/congress_attrs.csv",
               "--models", "model1,model3,model6", "--estimator", "exact-dyad",
               "--q-range", "1:20", "--restarts", "2", "--seed", "1"],
    "ergm-mcmle": ["ergm", "--edges", "{inputs}/chamber_edges.csv",
                   "--estimator", "mcmle", "--models", "model1,model2", "--seed", "1"],
    "sbm": ["sbm", "--edges", "{inputs}/congress_edges.csv",
            "--q-range", "1:6", "--restarts", "3", "--seed", "1"],
}
# Every built-in model under both Newton estimators: model4 has pinned and
# inestimable match terms, and model6 a separated one.
for _estimator in ("exact-dyad", "mple"):
    COMMANDS[f"ergm-{_estimator}"] = [
        "ergm", "--edges", "{inputs}/congress_edges.csv",
        "--attrs", "{inputs}/congress_attrs.csv",
        "--models", ",".join(f"model{m}" for m in range(1, 7)),
        "--estimator", _estimator, "--seed", "1"]
# Runs checked at one BLAS thread only. model4's 29-row weighted Gram goes
# through an OpenBLAS dgemm whose summation order changes with the thread
# count on some block widths, so its last digits do too.
ONE_THREAD_RUNS = {"ergm-exact-dyad", "ergm-mple"}


def installed_versions() -> dict[str, str]:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def run_commands(inputs: Path, out: Path, threads: int) -> dict[str, dict[str, str]]:
    """Run every command in one fresh process with `threads` BLAS threads;
    each run's manifest output digests, by run name."""
    argvs = {name: [arg.format(inputs=inputs) for arg in argv] + ["--out", str(out / name)]
             for name, argv in COMMANDS.items()}
    script = ("import json, legnet.cli\n"
              f"argvs = {argvs!r}\n"
              "print(json.dumps({name: legnet.cli.main(argv) for name, argv in argvs.items()}))\n")
    src = str(Path(legnet.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    count = str(threads)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": count,
           "OMP_NUM_THREADS": count, "MKL_NUM_THREADS": count}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(COMMANDS, 0), done.stderr
    return {name: json.loads((out / name / "manifest.json").read_text())["outputs"]
            for name in COMMANDS}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-inputs")
    gen.generate(GENERATOR_SEED, out, shapes=("congress", "chamber"))
    return out


@pytest.mark.parametrize("threads", [1, 2])
def test_seeded_runs_write_the_recorded_outputs(inputs, tmp_path, threads):
    record = json.loads(RECORD.read_text())
    installed = installed_versions()
    if record["versions"] != installed:
        pytest.skip(f"golden record made with {record['versions']}; installed: {installed}")
    outputs = run_commands(inputs, tmp_path, threads)
    for name, digests in record["runs"].items():
        if threads > 1 and name in ONE_THREAD_RUNS:
            continue
        changed = sorted(f for f in set(digests) | set(outputs[name])
                         if digests.get(f) != outputs[name].get(f))
        assert not changed, f"{name} at {threads} BLAS thread(s): {changed} differ from the record"


def main() -> int:
    """Re-record the digests with the installed versions, at one BLAS thread."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        gen.generate(GENERATOR_SEED, inputs, shapes=("congress", "chamber"))
        runs = run_commands(inputs, Path(tmp) / "out", 1)
    record = {"versions": installed_versions(), "generator_seed": GENERATOR_SEED,
              "runs": runs}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, runs.values()))} digests in {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

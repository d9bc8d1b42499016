"""legnet benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload report-congress --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40    # every workload, both modes

Generates the inputs for --seed (bench/gen.py; one or more input
sets, see workloads.Workload.input_sets), then runs operations
in a closed loop (one client, one operation at a time) until
--seconds have passed, checks every operation's output against the
oracles in bench/oracles.py, and prints a line per metric followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 spawns a fresh worker process per operation and reports the
end-to-end metrics (run_s, setup_s, peak_rss_mb). --trace 1 runs in
this process, alternating an untraced and a traced operation, and
reports the per-layer metrics of bench/tracing.py plus the tracing
overhead. Every failed operation (exception, non-zero exit, failed
output check) counts in "failed" with its reason printed above the
JSON line; "correct" is false only when the benchmark could not check
an operation at all. Work files go to .bench_work/ in the checkout.
"""

import os

# One BLAS thread on both sides of every comparison; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import MODELS, WORKLOADS, cli_argv, run_op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0      # the whole run must end within 180 s
DEFAULT_SEED = 1        # fixed before any fit outcome was looked at
CENTRALITY_TOL = 1e-9   # against networkx, absolute plus relative
SCORE_TOL = 1e-9        # ICL (relative) and partition scores
THETA_TOL = 1e-6        # closed-form coefficients, absolute
LOGLIK_TOL = 1e-9       # closed-form log-likelihoods, relative
# The MCMLE log-likelihood is a Monte-Carlo estimate, held to an absolute
# 2 nats instead: the AIC price of one parameter (see bench/NOTES.md).
MCMLE_LOGLIK_TOL_NATS = 2.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- environment --------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tree_digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": tree_digest(SRC, "*.py"),
    }


# -- oracle values ------------------------------------------------------------


class Expected:
    """Reference values for one seed's inputs, computed before timing."""

    def __init__(self, workload: str, inputs: Path) -> None:
        import numpy as np

        import oracles

        self.graphs = {}
        for shape in WORKLOADS[workload].shapes:
            ids, src, dst = oracles.read_edges(inputs / f"{shape}_edges.csv")
            self.graphs[shape] = (ids, src, dst)
        if workload != "ergm-fits":
            shape = WORKLOADS[workload].shapes[0]
            ids, src, dst = self.graphs[shape]
            self.ids = ids
            self.closeness, self.betweenness = oracles.networkx_centrality(
                len(ids), src, dst)
        if workload == "report-congress":
            n = len(ids)
            self.y = np.zeros((n, n))
            self.y[src, dst] = 1.0
            attrs = inputs / "congress_attrs.csv"
            self.columns = {c: oracles.read_column(attrs, "node_id", c)
                            for c in ("party", "chamber")}
        self.fits = {}
        for shape, (ids, src, dst) in self.graphs.items():
            census = oracles.dyad_census(len(ids), src, dst)
            self.fits[shape] = {
                "census": census,
                "exact-dyad:model1": oracles.edges_fit(len(ids), len(src)),
                "mple:model1": oracles.edges_fit(len(ids), len(src)),
                "exact-dyad:model2": oracles.mutual_fit(*census),
                "mple:model2": oracles.mutual_pseudo_fit(*census),
            }


# -- output checks ------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * (1.0 + abs(b))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:300] if lines else ""


def _num(text: str) -> float:
    return float(text) if text else math.nan


def check_fit(record: dict, expected: Expected) -> list[str]:
    """Reasons one ergm-fits record fails; empty when it passes."""
    import oracles

    if not record["ok"]:
        return [record["error"]]
    method_model, shape = record["op"].split("@")
    fits = expected.fits[shape]
    reasons = []
    if method_model.startswith("mcmle:"):
        want = oracles.mutual_loglik(record["theta"], *fits["census"])
        record["ll_error_nats"] = abs(record["log_likelihood"] - want)  # for the trace
        if abs(record["log_likelihood"] - want) > MCMLE_LOGLIK_TOL_NATS:
            reasons.append(f"log-likelihood {record['log_likelihood']:.6f} is "
                           f"{record['log_likelihood'] - want:+.3f} nats off the "
                           f"closed form {want:.6f} at its own theta")
    elif method_model in fits:
        theta, ll = fits[method_model]
        if max(abs(a - b) for a, b in zip(record["theta"], theta)) > THETA_TOL:
            reasons.append(f"theta {record['theta']} != closed form {list(theta)}")
        if not _close(record["log_likelihood"], ll, LOGLIK_TOL):
            reasons.append(f"log-likelihood {record['log_likelihood']} != "
                           f"closed form {ll}")
    return reasons


def check_cli(workload: str, outcome: dict, expected: Expected) -> list[str]:
    """Reasons one CLI operation fails; empty when it passes."""
    import oracles

    if outcome["exit_code"] != 0:
        return [f"exit {outcome['exit_code']}: {_last_line(outcome.get('stderr', ''))}"]
    out = Path(outcome["out"])
    reasons = []
    rows = {r["node_id"]: r for r in _csv_rows(out / "centrality.csv")}
    for column, want in (("closeness", expected.closeness),
                         ("betweenness", expected.betweenness)):
        bad = [node for node, w in zip(expected.ids, want)
               if not _close(_num(rows[node][column]), float(w), CENTRALITY_TOL)]
        if bad:
            reasons.append(f"{column} differs from networkx at {len(bad)} nodes "
                           f"(first {bad[0]})")
    if workload == "report-congress":
        labels = {r["node_id"]: r["community"] for r in _csv_rows(out / "communities.csv")}
        labels = [labels[node] for node in expected.ids]
        fit = json.loads((out / "sbm_fit.json").read_text(encoding="utf-8"))
        curve = [float(r["icl"]) for r in _csv_rows(out / "sbm_icl_curve.csv")]
        icl = oracles.icl(expected.y, labels)
        if not _close(fit["icl"], icl, SCORE_TOL):
            reasons.append(f"ICL {fit['icl']} != recomputed {icl}")
        if not _close(max(curve), fit["icl"], SCORE_TOL):
            reasons.append(f"selected ICL {fit['icl']} is not the curve maximum {max(curve)}")
        scores = {r["partition"]: r for r in _csv_rows(out / "partition_scores.csv")}
        for column, values in expected.columns.items():
            other = [values[node] for node in expected.ids]
            for key, want in zip(("rand", "adjusted_rand", "nmi"),
                                 oracles.pair_scores(labels, other)):
                got = float(scores[column][key])
                if not _close(got, want, SCORE_TOL):
                    reasons.append(f"{key} against {column}: {got} != {want}")
        model1 = json.loads((out / "ergm_model1.json").read_text(encoding="utf-8"))
        reasons += check_fit({"op": "exact-dyad:model1@congress", "ok": True,
                              "theta": model1["theta"],
                              "log_likelihood": model1["log_likelihood"]}, expected)
    return reasons


@dataclass
class InputSet:
    """One seeded set of generated inputs and its reference values."""

    seed: int          # generator seed, also the seed legnet is given
    inputs: Path
    expected: Expected
    key: str           # workload, seed, source and input digests


class DigestCheck:
    """Manifest output digests must not change across operations and runs
    of one source tree on the same inputs and seed."""

    def __init__(self) -> None:
        self.path = WORK / "digests.json"
        self.known = (json.loads(self.path.read_text(encoding="utf-8"))
                      if self.path.exists() else {})

    def check(self, key: str, out: Path) -> list[str]:
        outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        first = self.known.setdefault(key, outputs)
        changed = sorted(k for k in set(first) | set(outputs)
                         if first.get(k) != outputs.get(k))
        return [f"manifest digests differ from an earlier run: {', '.join(changed)}"] \
            if changed else []

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")


# -- running operations ---------------------------------------------------------


def _remaining(started: float) -> float:
    return DEADLINE_S - (time.monotonic() - started)


def spawn_op(job: dict, work: Path, started: float) -> dict:
    """One operation in a fresh worker process."""
    job_file = work / "job.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    before = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_file)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(_remaining(started), 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "operation timed out"}
    result_file = Path(job["result"])
    if proc.returncode != 0 or not result_file.exists():
        return {"error": f"worker exited {proc.returncode}: {_last_line(proc.stderr)}"}
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["setup_s"] = result.pop("imported") - before
    result["stderr"] = proc.stderr
    result["out"] = job["out"]
    return result


def inprocess_op(workload: str, inputs: Path, out: Path, seed: int) -> dict:
    """One operation in this process (the traced run and its baseline)."""
    kind = WORKLOADS[workload].kind
    argv = cli_argv(workload, inputs, out, seed) if kind == "cli" else None
    start = time.perf_counter()
    try:
        records, code = run_op(kind, argv, inputs)
    except Exception as exc:  # an escaped exception is a failed operation
        return {"error": f"{type(exc).__name__}: {exc}".splitlines()[0]}
    return {"run_s": time.perf_counter() - start, "exit_code": code,
            "records": records, "out": str(out)}


def run_untraced(args, sets: list[InputSet], work: Path, started: float):
    """Fresh worker process per operation, cycling through the input sets;
    returns (outcomes, samples). Each outcome names its set under "set"."""
    workload = WORKLOADS[args.workload]
    outcomes: list[dict] = []
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    loop_start = time.monotonic()
    while not outcomes or (time.monotonic() - loop_start < args.seconds
                           and _remaining(started) > 30.0):
        k = len(outcomes)
        one = sets[k % len(sets)]
        out = work / f"op{k}"
        job = {"kind": workload.kind, "src": str(SRC), "inputs": str(one.inputs),
               "out": str(out), "result": str(work / f"result{k}.json"),
               "argv": (cli_argv(args.workload, one.inputs, out, one.seed)
                        if workload.kind == "cli" else None)}
        outcome = spawn_op(job, work, started)
        outcome["set"] = k % len(sets)
        if "error" not in outcome:
            for name in END_TO_END:
                samples[name].append(outcome[name])
        outcomes.append(outcome)
    return outcomes, samples


def run_traced(args, sets: list[InputSet], work: Path, started: float):
    """Rounds of one untraced and one traced in-process operation, both
    on the same input set; the rounds cycle through the sets.

    A first, unmeasured operation takes the process's warm-up cost,
    which would otherwise fall on one side of the comparison. Returns
    (outcomes, tracer, traced run_s, untraced run_s); outcomes name
    their set under "set", traced ones carry the tracer's run id under
    "trace_run".
    """
    from tracing import Tracer

    tracer = Tracer()
    outcomes = [inprocess_op(args.workload, sets[0].inputs, work / "op-warmup",
                             sets[0].seed)]
    outcomes[0]["set"] = 0
    traced: list[float] = []
    untraced: list[float] = []
    if "error" in outcomes[0]:
        return outcomes, tracer, traced, untraced
    loop_start = time.monotonic()
    while not traced or (time.monotonic() - loop_start < args.seconds
                         and _remaining(started) > 60.0):
        k = len(traced)
        one = sets[k % len(sets)]
        base = inprocess_op(args.workload, one.inputs, work / f"op{k}" / "untraced",
                            one.seed)
        tracer.run += 1
        tracer.install()
        try:
            outcome = inprocess_op(args.workload, one.inputs, work / f"op{k}" / "traced",
                                   one.seed)
        finally:
            tracer.uninstall()
        outcome["trace_run"] = tracer.run
        base["set"] = outcome["set"] = k % len(sets)
        outcomes += [base, outcome]
        if "error" in base or "error" in outcome:
            break
        untraced.append(base["run_s"])
        traced.append(outcome["run_s"])
    return outcomes, tracer, traced, untraced


def check_outcomes(workload: str, outcomes: list[dict], sets: list[InputSet],
                   digests: DigestCheck) -> tuple[int, int, dict[str, int], bool]:
    """(attempted, failed, failure reasons with counts, correct)."""
    kind = WORKLOADS[workload].kind
    attempted = failed = 0
    reasons: dict[str, int] = {}
    correct = True
    for outcome in outcomes:
        if "error" in outcome:
            # the whole operation died: every fit it would have made failed
            size = len(MODELS) * 2 + 3 if kind == "ergm" else 1
            per_op = [("operation", [outcome["error"]])] * size
        else:
            one = sets[outcome["set"]]
            try:
                if kind == "ergm":
                    per_op = [(r["op"], check_fit(r, one.expected))
                              for r in outcome["records"]]
                else:
                    found = check_cli(workload, outcome, one.expected)
                    if outcome["exit_code"] == 0:
                        found += digests.check(one.key, Path(outcome["out"]))
                    per_op = [("cli", found)]
            except (OSError, KeyError, ValueError) as exc:
                correct = False
                per_op = [("check", [f"could not check the output: "
                                     f"{type(exc).__name__}: {exc}"])]
        for op, found in per_op:
            attempted += 1
            failed += bool(found)
            for reason in found:
                key = f"{op}: {reason}"
                reasons[key] = reasons.get(key, 0) + 1
    return attempted, failed, reasons, correct


def layer_metrics(workload: str, outcomes: list[dict], tracer,
                  traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics of the traced operations, medians over them."""
    layers = []
    for outcome in outcomes:
        if "trace_run" not in outcome or "error" in outcome:
            continue
        m = tracer.metrics(outcome["trace_run"])
        cli = WORKLOADS[workload].kind == "cli"
        files, size = files_written(Path(outcome["out"])) if cli else (0, 0)
        m["pipeline.files_written"] = files
        m["pipeline.bytes_written"] = size
        errors = [r.get("ll_error_nats", 0.0) for r in outcome["records"] or []
                  if r["op"].startswith("mcmle:")]
        m["ergm.mcmle.ll_error_nats"] = max(errors, default=0.0)
        layers.append(m)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wrapped in tracer.missing:
        print(f"not traced: {wrapped} no longer exists")
    metrics = {}
    for entry in bench["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_s" and traced:
            value = statistics.median(traced) - statistics.median(untraced)
        elif not layers or name not in layers[0]:
            print(f"{name}: missing")
            continue
        else:
            value = statistics.median(m[name] for m in layers)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    print(summarize("run_s (traced)", "s", traced))
    print(summarize("run_s (untraced, in-process)", "s", untraced))
    return metrics


# -- reporting ------------------------------------------------------------------


def summarize(name: str, unit: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    if not values:
        return f"{name}: no samples"
    ordered = sorted(values)
    n = len(ordered)
    tail = "no percentile: fewer than 11 samples"
    if n >= 11:
        k = n - 10
        tail = f"p{100.0 * k / n:.0f} {ordered[k - 1]:.6g} {unit}"
    listed = ", ".join(f"{v:.4g}" for v in values)
    return (f"{name}: median {statistics.median(ordered):.6g} {unit}; {tail}; n={n} "
            f"[{listed}]")


def files_written(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_all(args) -> int:
    """Every workload, untraced and then traced, one run each."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            code = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(trace)]).returncode
            worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    started = time.monotonic()
    if not (SRC / "legnet" / "__init__.py").is_file():
        print(f"no legnet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import gen

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    sets = []
    for k in range(workload.input_sets):
        seed = args.seed * workload.input_sets + k
        inputs = work / f"inputs{k}"
        try:
            censuses = gen.generate(seed, inputs, workload.shapes)
        except ValueError as exc:
            print(f"input generation failed: {exc}", file=sys.stderr)
            return 1
        for shape, census in censuses.items():
            print(census.line(f"{shape} (seed {seed})"))
        sets.append(InputSet(seed, inputs, Expected(args.workload, inputs),
                             f"{args.workload}|{seed}|{env['src_sha256']}|"
                             f"{tree_digest(inputs, '*.csv')}"))
    print(f"workload {args.workload}: closed loop, 1 client, 1 operation at a time, "
          f"{'in-process, traced' if args.trace else 'fresh process per operation'}")

    if args.trace:
        sys.path.insert(0, str(SRC))
        import legnet

        if not legnet.__file__.startswith(str(SRC)):
            print(f"legnet imported from {legnet.__file__}, not {SRC}", file=sys.stderr)
            return 2
        outcomes, tracer, traced, untraced = run_traced(args, sets, work, started)
    else:
        outcomes, samples = run_untraced(args, sets, work, started)

    digests = DigestCheck()
    attempted, failed, reasons, correct = check_outcomes(
        args.workload, outcomes, sets, digests)
    digests.save()
    if args.trace:
        metrics = layer_metrics(args.workload, outcomes, tracer, traced, untraced)
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            print(summarize(name, unit, samples[name]))
            if samples[name]:
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(f"ops_attempted: {attempted}")
    print(f"ops_failed_frac: {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for reason, count in sorted(reasons.items()):
        print(f"failure x{count}: {reason}")
    for path in work.glob("op*"):
        shutil.rmtree(path, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "env": env, **result}) + "\n")
    print(json.dumps(result))
    return 0 if metrics else 1  # nothing measured: the run itself failed


if __name__ == "__main__":
    sys.exit(main())

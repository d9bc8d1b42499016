"""The three benchmark workloads: what each operation runs.

Imported both by the benchmark's parent process and by the worker it
spawns, so it imports nothing heavy at module level. Library calls go
through ``legnet.<name>`` looked up at call time, which is the name
the traced run wraps.

Configs use only options that survive the open ROADMAP items: no
``threads`` and no ``bridges`` / ``bridge_*`` Monte-Carlo controls
(``fit_mcmle`` runs at the default ``McmleControl``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

# SBM scan of report-congress: the published run uses 1:20 with 10
# restarts; 1:20 with 2 restarts keeps SBM at about 60% of the scaled run.
Q_RANGE = "1:20"
RESTARTS = 2
REPORT_MODELS = "model1,model3,model6"
MODELS = ("model1", "model2", "model3", "model4", "model5", "model6")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "cli": one CLI call per op; "ergm": one fit per op
    shapes: tuple[str, ...]  # generated graph shapes it reads
    # Seeded input sets a run cycles its operations through. Run s uses
    # generator seeds s * input_sets + k. report-congress takes four: its
    # run time differs by a third or more from one graph to the next,
    # mostly in SBM selection, and a run median over four graphs keeps
    # most of that out of the run-to-run spread.
    input_sets: int = 1


# Why each workload exists is stated in BENCHMARK.json and bench/NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload("report-congress", "cli", ("congress",), input_sets=4),
    Workload("topology-sparse", "cli", ("sparse",)),
    Workload("ergm-fits", "ergm", ("congress", "published", "chamber")),
)}


def cli_argv(workload: str, inputs: Path, out: Path, seed: int) -> list[str]:
    """Arguments of the one legnet CLI call a CLI operation makes."""
    if workload == "report-congress":
        return ["report", "--edges", str(inputs / "congress_edges.csv"),
                "--attrs", str(inputs / "congress_attrs.csv"), "--out", str(out),
                "--models", REPORT_MODELS, "--estimator", "exact-dyad",
                "--q-range", Q_RANGE, "--restarts", str(RESTARTS),
                "--seed", str(seed)]
    if workload == "topology-sparse":
        return ["topology", "--edges", str(inputs / "sparse_edges.csv"),
                "--out", str(out), "--seed", str(seed)]
    raise ValueError(f"{workload} is not a CLI workload")


def run_op(kind: str, argv: list[str] | None, inputs: Path) -> tuple[list[dict] | None, int]:
    """Run one operation: (fit records, exit code).

    A CLI operation is one ``legnet.cli.main(argv)`` call and has no
    records; an ergm operation is `ergm_sequence` and exits 0. Any
    other exception propagates to the caller.
    """
    if kind == "ergm":
        return ergm_sequence(inputs), 0
    import legnet.cli

    try:
        return None, legnet.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return None, exc.code if isinstance(exc.code, int) else 2


def _attempt(records: list, op: str, call) -> None:
    """Run one fit, recording its outcome instead of raising."""
    start = time.perf_counter()
    record = {"op": op}
    try:
        fit = call()
    except Exception as exc:  # a failed fit is a measured outcome
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}".splitlines()[0])
    else:
        record.update(ok=True, theta=[float(v) for v in fit.theta],
                      log_likelihood=float(fit.log_likelihood),
                      iterations=int(fit.iterations))
        if fit.method == "mcmle":
            record.update(phases=int(fit.diagnostics.get("phases", 0)),
                          acceptance=float(fit.diagnostics.get("acceptance_rate", 0.0)))
    record["seconds"] = time.perf_counter() - start
    records.append(record)


def ergm_sequence(inputs: Path) -> list[dict]:
    """The ergm-fits operation sequence; one record per fit.

    1. exact-dyad and MPLE fits of model1-model6 on the congress graph,
       centrality covariates computed here;
    2. both fits of model2 on the published-size graph (n=475), where
       the dyad census is the published one;
    3. ``fit_mcmle(model2)`` at the default control on the chamber graph.
    """
    import legnet

    records: list[dict] = []
    graph = legnet.load_edge_list(inputs / "congress_edges.csv")
    attrs = legnet.load_attributes(inputs / "congress_attrs.csv", graph)
    cent = legnet.centrality_report(graph)
    for model in MODELS:
        for label, fit in (("exact-dyad", "fit_exact_dyad"), ("mple", "fit_mple")):
            _attempt(records, f"{label}:{model}@congress",
                     lambda: getattr(legnet, fit)(
                         graph, legnet.build_model(model, graph, attrs, cent)))
    published = legnet.load_edge_list(inputs / "published_edges.csv")
    for label, fit in (("exact-dyad", "fit_exact_dyad"), ("mple", "fit_mple")):
        _attempt(records, f"{label}:model2@published",
                 lambda: getattr(legnet, fit)(
                     published, legnet.build_model("model2", published, None, None)))
    chamber = legnet.load_edge_list(inputs / "chamber_edges.csv")
    _attempt(records, "mcmle:model2@chamber",
             lambda: legnet.fit_mcmle(
                 chamber, legnet.build_model("model2", chamber, None, None)))
    return records

"""Batch pipeline: ingest through report bundle.

Every artifact is machine-first (CSV/JSON) plus one Markdown summary.
Output is byte-reproducible for a fixed config and inputs: no
timestamps, sorted JSON keys, fixed float formatting, and all
randomness flows from the configured seed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import json
import math
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .attributes import AttributeTable
from .config import (RunConfig, STAGES, build_model, model_entry, model_needs_attrs,
                     model_needs_centrality, spec_from_terms)
from .errors import ConfigError, DataError
from .ergm import (ErgmFit, McmleControl, fit_exact_dyad, fit_mcmle, fit_mple,
                   likelihood_ratio_test, mcmc_diagnostics, report_effects)
from .graph import ComponentReport, Graph, components
from .io import dot_dump, edge_csv_dump, graphml_dump, load_attributes, load_edge_list
from .partition import _adjusted_rand, _nmi, _rand, contingency, count_pairs, label_codes
from .sbm import SbmFit, community_summary, select_q
from .topology import (CentralityReport, ConnectivityReport, assortativity_report,
                       centrality_report, connectivity_report, density)


def fmt(x: Any) -> str:
    """Fixed CSV float formatting; infinities mirror the sign."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    v = float(x)
    if math.isnan(v):
        return ""
    if math.isinf(v):
        return "Inf" if v > 0 else "-Inf"
    return "%.12g" % v


def compare_models(fits: Sequence[tuple[str, ErgmFit]]) -> list[dict]:
    """AIC-ranked comparison with reductions against the first fit.

    All fits must come from the same graph; the first entry is the
    baseline for the percentage columns, whatever its rank.
    """
    if len(fits) < 2:
        raise DataError("model comparison needs at least 2 fits")
    digests = {fit.graph_digest for _, fit in fits}
    if len(digests) != 1:
        raise DataError("fits come from different graphs")
    base = fits[0][1]
    rows = []
    for name, fit in fits:
        rows.append({
            "model": name,
            "terms": fit.k,
            "log_likelihood": fit.log_likelihood,
            "aic": fit.aic,
            "bic": fit.bic,
            "aic_reduction_pct": 100.0 * (base.aic - fit.aic) / base.aic,
            "bic_reduction_pct": 100.0 * (base.bic - fit.bic) / base.bic,
        })
    rows.sort(key=lambda r: r["aic"])
    return rows


# The ErgmFit fields each ergm_<model>.json reports under their own names.
_FIT_FIELDS = ("method", "theta", "std_err", "p_values", "separation", "log_likelihood",
               "aic", "bic", "converged", "iterations")


def _jsonable(obj: Any) -> Any:
    """Plain JSON values; non-finite floats follow `fmt` (NaN null, Inf "Inf")."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None
        return v if math.isfinite(v) else fmt(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


class Pipeline:
    """Executes the configured stages and emits the report bundle."""

    def __init__(self, config: RunConfig) -> None:
        config.validate()
        self.config = config
        self.out = Path(config.out_dir)
        self.notices: list[str] = []
        self._payloads: dict[str, bytes] = {}  # the bundle, written once at the end
        self._digests: dict[str, str] = {}
        self._sbm: SbmFit | None = None
        self._fits: list[tuple[str, ErgmFit]] = []

    # -- shared lazy inputs, each computed on first use ----------------------

    @cached_property
    def graph(self) -> Graph:
        return load_edge_list(Path(self.config.edges), format=self.config.edge_format)

    @cached_property
    def attrs(self) -> AttributeTable | None:
        if not self.config.attrs:
            return None
        return load_attributes(Path(self.config.attrs), self.graph)

    @cached_property
    def centrality(self) -> CentralityReport:
        return centrality_report(self.graph, self.config.weighted_spectral)

    @cached_property
    def connectivity(self) -> ConnectivityReport:
        return connectivity_report(self.graph, self.config.min_clique_size)

    @cached_property
    def census(self) -> ComponentReport:
        return components(self.graph)

    @cached_property
    def assortativity(self) -> list[tuple[str, str, float | None]]:
        return assortativity_report(self.graph, self.attrs, self.centrality)

    def _computed(self, name: str) -> Any:
        """The lazy input `name` if some stage already computed it, else None."""
        return self.__dict__.get(name)

    def notice(self, text: str) -> None:
        self.notices.append(text)

    # -- emission helpers ----------------------------------------------------

    def _write_bytes(self, name: str, payload: bytes) -> None:
        self._payloads[name] = payload
        self._digests[name] = hashlib.sha256(payload).hexdigest()

    def _emit(self) -> None:
        """Write the bundle, the manifest last. A failed write removes the
        files this run wrote, so that it leaves no partial bundle."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out}: {exc}") from None
        written: list[Path] = []
        for name, payload in self._payloads.items():
            path = self.out / name
            try:
                path.write_bytes(payload)
            except OSError as exc:
                for done in written:
                    done.unlink(missing_ok=True)
                raise ConfigError(f"cannot write output file {path}: {exc}") from None
            written.append(path)

    def _write_text(self, name: str, text: str) -> None:
        self._write_bytes(name, text.encode("utf-8"))

    def _write_json(self, name: str, obj: Any) -> None:
        payload = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
        self._write_text(name, payload + "\n")

    def _write_csv(self, name: str, header: Sequence[str],
                   rows: Sequence[Sequence[Any]]) -> None:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else fmt(v) for v in row])
        self._write_text(name, buf.getvalue())

    # -- stages -----------------------------------------------------------

    def run(self) -> dict:
        """Execute the requested stages and the stages they need, in order.

        The scores need the communities, and a model on centrality scores
        needs the topology stage. A UserWarning raised in a stage becomes
        a notice "<stage>: <message> (<n>x)"; other warnings pass through.
        The first stage reads every configured input (the loaders'
        warnings are its notices). The stages only collect their files;
        the bundle is written after the manifest is built, so a run that
        fails leaves no output behind.
        """
        if self.out.exists() and not self.out.is_dir():
            raise ConfigError(f"cannot create output directory {self.out}: "
                              "it exists and is not a directory")
        wanted = set(self.config.stages)
        if "score" in wanted:
            wanted.add("sbm")
        if "ergm" in wanted and "topology" not in wanted and any(
                model_needs_centrality(m) for m in self.config.models):
            wanted.add("topology")
            self.notice("topology stage forced: requested models use "
                        "centrality covariates")
        self._selected = [s for s in STAGES if s in wanted]
        for index, stage in enumerate(self._selected):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                if index == 0:
                    self.graph, self.attrs  # every input is read, and warns, here
                getattr(self, f"_stage_{stage}")()
            counts = Counter()
            for w in caught:
                if issubclass(w.category, UserWarning):
                    counts[str(w.message)] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            for message, count in sorted(counts.items()):
                self.notice(f"{stage}: {message} ({count}x)")
        manifest = self._manifest()
        self._write_json("manifest.json", manifest)
        self._emit()
        return manifest

    def _manifest(self) -> dict:
        inputs = {}
        for label, path in (("edges", self.config.edges), ("attrs", self.config.attrs)):
            if path and Path(path).exists():
                inputs[label] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        return {
            "tool": f"legnet {__version__}",
            "numpy": np.__version__,
            "seed": self.config.seed,
            "stages": list(self._selected),
            "inputs": inputs,
            "outputs": dict(sorted(self._digests.items())),
            "notices": list(self.notices),
        }

    def _stage_ingest(self) -> None:
        graph, attrs = self.graph, self.attrs
        report = self.census
        summary = {
            "nodes": graph.n,
            "edges": graph.edge_count,
            "density": density(graph),
            "weak_component_sizes": list(report.weak_sizes),
            "strong_component_sizes": list(report.strong_sizes),
            "articulation_points": [str(v) for v in report.articulation_points],
            "is_giant_weak_component": report.is_giant_weak_component,
            "is_strongly_connected": report.is_strongly_connected,
        }
        self._write_json("graph_summary.json", summary)
        self._write_text("edges.csv", edge_csv_dump(graph))
        self._write_text("graph.graphml", graphml_dump(graph, attrs))
        self._write_text("graph.dot", dot_dump(graph, attrs))

    def _stage_topology(self) -> None:
        graph = self.graph
        names = [f.name for f in dataclasses.fields(CentralityReport)]
        columns = [getattr(self.centrality, name) for name in names]
        self._write_csv("centrality.csv", ["node_id", *names],
                        [[str(node), *values]
                         for node, *values in zip(graph.node_ids, *columns)])
        conn = self.connectivity
        payload = {**dataclasses.asdict(conn),
                   "maximal_cliques": [[str(graph.id_of(v)) for v in clique]
                                       for clique in conn.maximal_cliques]}
        if self.attrs is not None:
            # a level's density: its diagonal entry of the level-by-level edge table over k(k - 1)
            src, dst, _ = graph.edge_arrays()
            by_level = {}
            for column in ("party", "chamber"):
                if self.attrs.has(column):
                    levels, code = label_codes(self.attrs.categorical(column))
                    inside = np.diag(count_pairs(code[src], code[dst], len(levels), len(levels)))
                    for level, k, m in zip(levels, np.bincount(code), inside):
                        if k >= 2:
                            by_level[f"{column}:{level}"] = int(m) / int(k * (k - 1))
            payload["subgraph_density"] = by_level
        self._write_json("connectivity.json", payload)

    def _stage_assort(self) -> None:
        if self.attrs is None:
            self.notice("assortativity: attribute rows skipped (no attribute file); "
                        "structural rows only")
        self._write_csv("assortativity.csv", ["variable", "kind", "coefficient"],
                        self.assortativity)

    def _resolve_model(self, entry: Any, index: int):
        name, terms = model_entry(entry, index)
        if model_needs_attrs(terms) and self.attrs is None:
            self.notice(f"ergm: {name} skipped (needs the attribute file)")
            return None, None
        cent = (self.centrality if model_needs_centrality(terms)
                else self._computed("centrality"))
        if isinstance(entry, str):
            return name, build_model(name, self.graph, self.attrs, cent,
                                     party_reassignment=self.config.party_reassignment,
                                     standardize=self.config.standardize)
        return name, spec_from_terms(terms, self.attrs, cent,
                                     standardize=self.config.standardize)

    def _fit(self, spec) -> ErgmFit:
        method = self.config.ergm_estimator
        if method == "exact-dyad":
            return fit_exact_dyad(self.graph, spec)
        if method == "mple":
            return fit_mple(self.graph, spec)
        control = McmleControl(sample_size=self.config.mcmc_sample_size,
                               seed=self.config.seed)
        return fit_mcmle(self.graph, spec, control)

    def _stage_ergm(self) -> None:
        coef_rows = []
        effect_rows = []
        null_fit = None
        for index, entry in enumerate(self.config.models, start=1):
            name, spec = self._resolve_model(entry, index)
            if spec is None:
                continue
            fit = self._fit(spec)
            self._fits.append((name, fit))
            for label, value in zip(fit.labels, fit.theta):
                if np.isnan(value):
                    self.notice(f"ergm: {name}: {label} is 0 on every dyad "
                                "and cannot be estimated; reported as NaN")
            if fit.k == 1 and fit.labels == ("edges",):
                null_fit = fit
            payload = {"model": name, "terms": list(fit.labels),
                       **{key: getattr(fit, key) for key in _FIT_FIELDS}}
            if fit.method == "mcmle":
                payload["phases"] = fit.diagnostics.get("phases")
                payload["mc_std_err"] = fit.diagnostics.get("mc_std_err")
                self._write_json(f"ergm_{name}_diagnostics.json",
                                 mcmc_diagnostics(fit))
            self._write_json(f"ergm_{name}.json", payload)
            for k, label in enumerate(fit.labels):
                coef_rows.append([name, label, fit.theta[k], fit.std_err[k],
                                  fit.p_values[k]])
            for row in report_effects(fit):
                effect_rows.append([name, row["term"], row["theta"],
                                    row["exp"], row["expit"]])
        if coef_rows:
            self._write_csv("ergm_coefficients.csv",
                            ["model", "term", "estimate", "std_err", "p_value"],
                            coef_rows)
            self._write_csv("ergm_effects.csv",
                            ["model", "term", "theta", "exp", "expit"],
                            effect_rows)
        if len(self._fits) >= 2:
            ranking = compare_models(self._fits)
            self._write_csv("model_comparison.csv", list(ranking[0]),
                            [list(row.values()) for row in ranking])
        if null_fit is not None and len(self._fits) >= 2:
            tests = []
            for name, fit in self._fits:
                if fit is null_fit or fit.k <= null_fit.k:
                    continue
                stat, df, p = likelihood_ratio_test(fit, null_fit)
                tests.append([name, stat, df, p])
            if tests:
                self._write_csv("ergm_lrt_vs_edges.csv",
                                ["model", "statistic", "df", "p_value"], tests)

    def _stage_sbm(self) -> None:
        lo, hi = self.config.q_range
        best, curve = select_q(self.graph, range(lo, hi + 1),
                               restarts=self.config.sbm_restarts,
                               seed=self.config.seed)
        self._sbm = best
        self._write_csv("sbm_icl_curve.csv", ["q", "icl"],
                        [[q, value] for q, value in curve])
        self._write_json("sbm_fit.json", {
            "q": best.q,
            "requested_q": best.requested_q,
            "alpha": best.alpha,
            "pi": best.pi,
            "icl": best.icl,
            "elbo": best.elbo,
            "converged": best.converged,
            "iterations": best.iterations,
            "collapsed": best.collapsed,
            "runs": best.meta["runs"],
        })
        graph = self.graph
        self._write_csv("communities.csv", ["node_id", "community"],
                        [[str(graph.id_of(i)), int(best.labels[i]) + 1]
                         for i in range(graph.n)])
        summary = community_summary(best, self.attrs, self._computed("centrality"))
        self._write_csv("interaction_matrix.csv",
                        ["community"] + [str(c + 1) for c in range(best.q)],
                        [[str(r + 1)] + list(best.pi[r]) for r in range(best.q)])
        self._write_json("community_annotations.json", [
            {"community": row["community"], "size": row["size"],
             **{f"dominant_{column}": row[f"{column}_dominant"]
                for column in ("party", "chamber") if f"{column}_dominant" in row}}
            for row in summary])
        header = list(summary[0].keys())
        self._write_csv("community_summary.csv", header,
                        [[row.get(column) for column in header] for row in summary])

    def _stage_score(self) -> None:
        if self.attrs is None:
            self.notice("partition scores skipped (no attribute file)")
            return
        labels = [int(v) for v in self._sbm.labels]
        rows = []
        for column in self.config.score_against:
            if column not in self.attrs.categorical_columns:
                why = "is numeric" if self.attrs.has(column) else "not loaded"
                self.notice(f"partition scores: column {column!r} {why}; skipped")
                continue
            table = contingency(labels, list(self.attrs.categorical(column)))
            rows.append([column, _rand(table), _adjusted_rand(table), _nmi(table)])
        if rows:
            self._write_csv("partition_scores.csv",
                            ["partition", "rand", "adjusted_rand", "nmi"], rows)

    def _stage_report(self) -> None:
        self._write_text("summary.md", self._summary_markdown())

    # -- markdown summary ---------------------------------------------------

    def _top_table(self, values: np.ndarray, title: str, k: int = 5) -> list[str]:
        graph = self.graph
        order = np.argsort(-np.where(np.isfinite(values), values, -np.inf),
                           kind="stable")[:k]
        lines = [f"### Top {k} by {title}", "", "| node | value |", "| --- | --- |"]
        for i in order:
            lines.append(f"| {graph.id_of(int(i))} | {fmt(values[int(i)])} |")
        lines.append("")
        return lines

    def _summary_markdown(self) -> str:
        graph = self.graph
        lines = ["# Network analysis summary", ""]
        report = self.census
        lines += [
            f"Nodes: {graph.n}; directed edges: {graph.edge_count}; "
            f"density: {fmt(density(graph))}.",
            f"Weak components: {len(report.weak_sizes)}; "
            f"strongly connected: {report.is_strongly_connected}; "
            f"articulation points: {len(report.articulation_points)}.",
            "",
        ]
        cent = self._computed("centrality")
        if cent is not None:
            lines += self._top_table(cent.in_degree.astype(float), "in-degree")
            lines += self._top_table(cent.out_degree.astype(float), "out-degree")
            lines += self._top_table(cent.betweenness, "betweenness")
            lines += self._top_table(cent.eigen, "eigenvector score")
            lines += self._top_table(cent.hub, "hub score")
            lines += self._top_table(cent.authority, "authority score")
        conn = self._computed("connectivity")
        if conn is not None:
            lines += [
                "## Cohesion", "",
                f"Reciprocity {fmt(conn.reciprocity)}; "
                f"transitivity {fmt(conn.transitivity)}; "
                f"triad closed fraction {fmt(conn.triad_closed_fraction)}; "
                f"mean local clustering {fmt(conn.mean_local_clustering)}.",
                f"Largest cliques: {len(conn.maximal_cliques)} of size "
                f"{conn.max_clique_size} (see connectivity.json).",
                "",
            ]
        if "assort" in self.config.stages:
            lines += ["## Assortativity", "",
                      "| variable | kind | coefficient |", "| --- | --- | --- |"]
            for name, kind, coeff in self.assortativity:
                value = fmt(coeff) if coeff is not None else "undefined"
                lines.append(f"| {name} | {kind} | {value} |")
            lines.append("")
        if self._fits:
            lines += ["## Models", "",
                      "| model | term | estimate | std err | p |",
                      "| --- | --- | --- | --- | --- |"]
            for name, fit in self._fits:
                for k, label in enumerate(fit.labels):
                    lines.append(f"| {name} | {label} | {fmt(fit.theta[k])} | "
                                 f"{fmt(fit.std_err[k])} | {fmt(fit.p_values[k])} |")
            lines += ["", "| model | AIC | BIC |", "| --- | --- | --- |"]
            for name, fit in self._fits:
                lines.append(f"| {name} | {fmt(fit.aic)} | {fmt(fit.bic)} |")
            lines.append("")
        if self._sbm is not None:
            best = self._sbm
            counts = np.bincount(best.labels, minlength=best.q)
            lines += [
                "## Communities", "",
                f"ICL-selected Q = {best.q} (curve in sbm_icl_curve.csv).",
                "",
                "| community | size | share |", "| --- | --- | --- |",
            ]
            for c in range(best.q):
                lines.append(f"| {c + 1} | {int(counts[c])} | "
                             f"{fmt(counts[c] / graph.n)} |")
            diag = np.sort(np.diag(best.pi))[::-1]
            top_two = ", ".join(fmt(v) for v in diag[:2])
            lines += ["", f"Two densest within-community rates: {top_two}.", ""]
        if self.notices:
            lines += ["## Notices", ""]
            lines += [f"- {n}" for n in self.notices]
            lines.append("")
        return "\n".join(lines) + "\n"


def run(config: RunConfig) -> dict:
    """Execute the configured pipeline; returns the manifest."""
    return Pipeline(config).run()

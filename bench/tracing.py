"""In-process tracing of legnet's public calls, from the benchmark's side.

The traced run replaces public functions at the names their callers
look up (``legnet.pipeline.select_q``, ``legnet.sbm.fit_q``,
``Graph.adjacency``, ...) with wrappers that record one span per call:
name, start, end, parent span and run id, plus a few counts taken
from the arguments and the result. Spans stay in memory; `write`
saves them when the benchmark ends. Nothing under ``src/`` changes.

A wrapped name that no longer exists is skipped, and every metric
that reads the span it would have recorded is left out (it reads as
missing) instead of crashing the run or reporting a partial sum.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    warnings: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sweeps(args, kwargs) -> dict:
    design, _theta, control = (list(args) + [None] * 3)[:3]
    control = kwargs.get("control", control)
    return {"sweeps": control.burnin + (control.sample_size - 1) * control.interval,
            "dyads": design.n_dyads}


# (module, owner attribute path, span name, info from (args, kwargs, result)).
# Info functions read public attributes only.
_TARGETS = [
    ("legnet.topology", "closeness", "topology.closeness",
     lambda a, k, r: {"sources": a[0].n}),
    ("legnet.topology", "betweenness", "topology.betweenness",
     lambda a, k, r: {"sources": a[0].n}),
    ("legnet.topology", "eigen_centrality", "topology.eigen", None),
    ("legnet.topology", "hits", "topology.hits", None),
    ("legnet.topology", "triad_closure", "topology.triad", None),
    ("legnet.topology", "maximal_cliques", "topology.cliques",
     lambda a, k, r: {"found": len(r)}),
    ("legnet.sbm", "fit_q", "sbm.fit_q",
     lambda a, k, r: {"converged": bool(r.converged), "collapsed": bool(r.collapsed)}),
    ("legnet.sbm", "classification_icl", "sbm.icl", None),
    ("legnet.ergm.mcmle", "sample_states", "ergm.sample_states",
     lambda a, k, r: {**_sweeps(a, k), "acceptance": float(r.acceptance_rate)}),
    ("legnet.ergm.mcmle", "fit_mple", "ergm.fit_mple",
     lambda a, k, r: {"iterations": int(r.iterations)}),
    ("legnet", "fit_exact_dyad", "ergm.fit_exact_dyad",
     lambda a, k, r: {"iterations": int(r.iterations)}),
    ("legnet", "fit_mple", "ergm.fit_mple",
     lambda a, k, r: {"iterations": int(r.iterations)}),
    ("legnet", "fit_mcmle", "ergm.fit_mcmle",
     lambda a, k, r: {"phases": int(r.diagnostics.get("phases", 0))}),
    ("legnet", "load_edge_list", "io.load_edge_list",
     lambda a, k, r: {"edges": r.edge_count}),
    ("legnet", "load_attributes", "io.load_attributes", None),
    ("legnet.graph", "Graph.adjacency", "graph.adjacency", None),
    ("legnet.ergm.terms", "DyadDesign.from_graph", "ergm.design", None),
    ("legnet.pipeline", "Pipeline.run", "pipeline.run", None),
]

# Spans named after the pipeline's own imports get these names, so that
# a call made by the pipeline and one made by the benchmark count alike.
_PIPELINE_NAMES = {
    "fit_exact_dyad": "ergm.fit_exact_dyad", "fit_mple": "ergm.fit_mple",
    "fit_mcmle": "ergm.fit_mcmle", "load_edge_list": "io.load_edge_list",
    "load_attributes": "io.load_attributes", "select_q": "sbm.select_q",
    "community_summary": "sbm.summary", "components": "graph.components",
    "assortativity_report": "topology.assort", "graphml_dump": "io.export",
    "dot_dump": "io.export",
}

_INFO = {t[2]: t[3] for t in _TARGETS if t[3]}
_INFO["sbm.select_q"] = lambda a, k, r: {"em_iters_best": int(r[0].iterations)}


class Tracer:
    """Installs the wrappers, collects spans, and derives layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        # wrapped names that could not be installed -> their span names
        self.missing: dict[str, str] = {}
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        info = _INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), name, tracer.run, parent, time.perf_counter())
            if name == "ergm.sample_states":
                span.info["caller"] = sys._getframe(1).f_code.co_name
            tracer.spans.append(span)
            tracer._stack.append(span)
            caught: list = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                span.warnings = len(caught)
                for w in caught:  # hand them on to whoever listens outside
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name))
        else:
            new = self._wrap(getattr(owner, attr), name)
        self._restore.append((owner, attr, raw if raw is not None else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib
        import inspect

        self.missing = {}
        for module_name, path, name, _ in _TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except AttributeError:
                self.missing[f"{module_name}.{path}"] = name
                continue
            self._patch(owner, attr, name)
        pipeline = importlib.import_module("legnet.pipeline")
        for attr, value in list(vars(pipeline).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ != pipeline.__name__):
                self._patch(pipeline, attr, _PIPELINE_NAMES.get(attr, f"pipeline.{attr}"))
        for attr, name in _PIPELINE_NAMES.items():
            if attr not in vars(pipeline):
                self.missing[f"legnet.pipeline.{attr}"] = name

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run (one benchmark operation).

        A metric that reads a span name in `missing` is left out: one of
        the calls it sums over was not traced, so its value would be 0
        or a partial sum.
        """
        spans = [s for s in self.spans if s.run == run]
        children: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.seconds
        read: set[str] = set()

        def of(name):
            read.add(name)
            return [s for s in spans if s.name == name]

        def busy(*names):
            return sum(s.seconds for n in names for s in of(n))

        def self_time(name):
            return sum(s.seconds - children.get(s.id, 0.0) for s in of(name))

        def total(name, key):
            return sum(s.info.get(key, 0) for s in of(name))

        def share(name, key):
            calls = of(name)
            return sum(s.info.get(key, False) for s in calls) / len(calls) if calls else 0.0

        def phase():  # sampler calls of the MCMLE phases, not of the bridges
            return [s for s in of("ergm.sample_states") if s.info.get("caller") == "fit_mcmle"]

        def fits():
            return of("ergm.fit_exact_dyad") + of("ergm.fit_mple")

        def per_s(count, seconds):
            return count / seconds if seconds else 0.0

        table = {
            "topology.closeness_s": lambda: busy("topology.closeness"),
            "topology.betweenness_s": lambda: busy("topology.betweenness"),
            "topology.bfs_sources": lambda: total("topology.closeness", "sources")
            + total("topology.betweenness", "sources"),
            "topology.eigen_s": lambda: busy("topology.eigen"),
            "topology.hits_s": lambda: busy("topology.hits"),
            "topology.triad_s": lambda: busy("topology.triad"),
            "topology.triad_calls": lambda: len(of("topology.triad")),
            "topology.cliques_s": lambda: busy("topology.cliques"),
            "topology.cliques_found": lambda: total("topology.cliques", "found"),
            "topology.assort_s": lambda: busy("topology.assort"),
            "topology.assort_calls": lambda: len(of("topology.assort")),
            "sbm.select_q_s": lambda: busy("sbm.select_q"),
            "sbm.fit_q_calls": lambda: len(of("sbm.fit_q")),
            "sbm.fit_q_max_s": lambda: max((s.seconds for s in of("sbm.fit_q")), default=0.0),
            "sbm.em_iters_best": lambda: total("sbm.select_q", "em_iters_best"),
            "sbm.converged_frac": lambda: share("sbm.fit_q", "converged"),
            "sbm.collapsed": lambda: total("sbm.fit_q", "collapsed"),
            "sbm.warnings": lambda: sum(s.warnings for s in of("sbm.fit_q")),
            "sbm.icl_s": lambda: busy("sbm.icl"),
            "sbm.summary_s": lambda: busy("sbm.summary"),
            "ergm.sampler.calls": lambda: len(of("ergm.sample_states")),
            "ergm.sampler.sweeps": lambda: total("ergm.sample_states", "sweeps"),
            "ergm.sampler.phase_s": lambda: sum(s.seconds for s in phase()),
            "ergm.sampler.loglik_s": lambda: busy("ergm.sample_states")
            - sum(s.seconds for s in phase()),
            "ergm.sampler.toggles_per_s": lambda: per_s(
                sum(s.info.get("sweeps", 0) * s.info.get("dyads", 0)
                    for s in of("ergm.sample_states")), busy("ergm.sample_states")),
            "ergm.sampler.acceptance": lambda: statistics.fmean(
                s.info["acceptance"] for s in phase()) if phase() else 0.0,
            "ergm.mcmle.s": lambda: busy("ergm.fit_mcmle"),
            "ergm.mcmle.self_s": lambda: self_time("ergm.fit_mcmle"),
            "ergm.mcmle.phases": lambda: total("ergm.fit_mcmle", "phases"),
            "ergm.fit.exact_s": lambda: busy("ergm.fit_exact_dyad"),
            "ergm.fit.mple_s": lambda: busy("ergm.fit_mple"),
            "ergm.fit.newton_iters": lambda: sum(s.info.get("iterations", 0) for s in fits()),
            "ergm.fit.fits": lambda: len(fits()),
            "ergm.fit.failed": lambda: sum(s.error is not None for s in fits()),
            "ergm.terms.design_builds": lambda: len(of("ergm.design")),
            "ergm.terms.design_s": lambda: busy("ergm.design"),
            "graph.adjacency_calls": lambda: len(of("graph.adjacency")),
            "graph.adjacency_s": lambda: busy("graph.adjacency"),
            "graph.components_s": lambda: busy("graph.components"),
            "io.load_s": lambda: busy("io.load_edge_list", "io.load_attributes"),
            "io.edges_per_s": lambda: per_s(total("io.load_edge_list", "edges"),
                                            busy("io.load_edge_list")),
            "io.export_s": lambda: busy("io.export"),
            "pipeline.self_s": lambda: self_time("pipeline.run"),
        }
        gone = set(self.missing.values())
        out = {}
        for metric, value in table.items():
            read.clear()
            v = value()
            if not read & gone:
                out[metric] = v
        return out

"""Seeded input generator for the benchmark.

Makes the three graph shapes the workloads run on, plus the member
attribute table, as plain CSV files in the layout the legnet CLI
reads. Every draw comes from ``numpy.random.default_rng`` keyed on
(seed, graph size, stream, draw number), so one seed always gives
byte-identical files.

Edge and mutual-dyad counts are fixed exactly (weighted sampling
without replacement by the Gumbel top-k trick); only the wiring and
the attribute draws move with the seed. That keeps the amount of
work per input steady from one seed to the next.

A graph whose census misses its target by more than the stated
tolerance is drawn again from the next draw number, up to MAX_DRAWS
times; the maximum in-degree of a heavy-tailed graph misses on one
or two seeds in a hundred.

    python3 bench/gen.py --seed 7 --out /tmp/inputs

prints one census line per graph and exits 1 when every draw of a
graph misses its target.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Published census of the congress interaction graph (the paper's data).
CONGRESS_N = 475
CONGRESS_EDGES = 13_300
CONGRESS_RECIPROCITY = 0.46
CONGRESS_BLOCKS = 12


# How far a census may miss its Target: edges and mean geodesic by
# REL_TOL of the target, maximum degrees by DEGREE_TOL (a maximum over a
# few hundred heavy-tailed draws moves a lot from seed to seed),
# reciprocity by RECIPROCITY_TOL absolute. Every node must have an out-tie.
REL_TOL = 0.25
DEGREE_TOL = 0.35
RECIPROCITY_TOL = 0.03
# Share of the mean activity every node gets on top of its lognormal
# draw, so that the least active nodes stay tied in.
ACTIVITY_FLOOR = 0.1
MAX_DRAWS = 20


@dataclass(frozen=True)
class Target:
    """Census targets of one graph shape."""

    n: int
    edges: int
    reciprocity: float
    max_out: int | None = None
    max_in: int | None = None
    mean_geodesic: float | None = None


def _scaled(n: int, degrees: bool = True) -> Target:
    """The congress census scaled to n nodes at the published density;
    maximum degrees (published 210 out, 127 in) scale with n - 1."""
    pairs = n * (n - 1) / (CONGRESS_N * (CONGRESS_N - 1))
    deg = (n - 1) / (CONGRESS_N - 1)
    return Target(n=n, edges=int(round(CONGRESS_EDGES * pairs)),
                  reciprocity=CONGRESS_RECIPROCITY,
                  max_out=int(round(210 * deg)) if degrees else None,
                  max_in=int(round(127 * deg)) if degrees else None)


# The workloads scale the published sizes down so that a whole operation
# fits in one run; the layer shares stay close to the published-size ones.
SHAPES = {
    # the published size; only the dyad-census fits run on it
    "published": _scaled(CONGRESS_N),
    "congress": _scaled(300),
    # only its dyad census matters: it feeds the edges + mutual MCMLE fit
    "chamber": _scaled(160, degrees=False),
    "sparse": Target(n=1000, edges=6_700, reciprocity=0.30, mean_geodesic=8.0),
}


@dataclass
class Census:
    n: int
    edges: int
    reciprocity: float
    max_out: int
    max_in: int
    min_out: int
    mean_geodesic: float

    def line(self, name: str) -> str:
        return (f"census {name}: n={self.n} edges={self.edges} "
                f"reciprocity={self.reciprocity:.3f} max_out={self.max_out} "
                f"max_in={self.max_in} min_out={self.min_out} "
                f"mean_geodesic={self.mean_geodesic:.2f}")

    def misses(self, t: Target) -> list[str]:
        """Targets this census misses, one message each."""
        out = []
        if self.n != t.n:
            out.append(f"n {self.n} != {t.n}")

        def rel(label, value, want, tol):
            if want is not None and abs(value - want) > tol * want:
                out.append(f"{label} {value:.3g} outside {want} +/- {tol:.0%}")

        rel("edges", self.edges, t.edges, REL_TOL)
        rel("max_out", self.max_out, t.max_out, DEGREE_TOL)
        rel("max_in", self.max_in, t.max_in, DEGREE_TOL)
        rel("mean_geodesic", self.mean_geodesic, t.mean_geodesic, REL_TOL)
        if self.min_out < 1:
            out.append("a node has no out-tie")
        if abs(self.reciprocity - t.reciprocity) > RECIPROCITY_TOL:
            out.append(f"reciprocity {self.reciprocity:.3f} outside "
                       f"{t.reciprocity} +/- {RECIPROCITY_TOL}")
        return out


def census(n: int, src: np.ndarray, dst: np.ndarray) -> Census:
    """Census of a directed edge list, computed without legnet."""
    y = sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    mutual = y.multiply(y.T).nnz
    dist = csgraph.shortest_path(y, unweighted=True)
    off = ~np.eye(n, dtype=bool) & np.isfinite(dist)
    out_deg = np.diff(y.indptr)
    return Census(n=n, edges=int(y.nnz), reciprocity=mutual / y.nnz,
                  max_out=int(out_deg.max()),
                  max_in=int(np.bincount(dst, minlength=n).max()),
                  min_out=int(out_deg.min()),
                  mean_geodesic=float(dist[off].mean()))


def _top_k(rng: np.random.Generator, log_w: np.ndarray, k: int) -> np.ndarray:
    """k distinct indices, drawn without replacement with weights exp(log_w)."""
    keys = log_w + rng.gumbel(size=log_w.size)
    return np.argpartition(-keys, k - 1)[:k]


def _quantiles(n: int, sigma: float) -> np.ndarray:
    """Lognormal quantiles at evenly spaced probabilities plus
    ACTIVITY_FLOOR, scaled to mean one."""
    from scipy.stats import norm
    q = np.exp(sigma * norm.ppf((np.arange(n) + 0.5) / n))
    q = q / q.mean() + ACTIVITY_FLOOR
    return q / q.mean()


def _directed_edges(rng, iu, ju, log_mutual, log_single, p_forward,
                    n_edges: int, reciprocity: float):
    """Exactly n_edges directed edges with the given reciprocity."""
    n_mutual = int(round(reciprocity * n_edges / 2))
    n_single = n_edges - 2 * n_mutual
    mutual = _top_k(rng, log_mutual, n_mutual)
    rest = np.ones(iu.size, dtype=bool)
    rest[mutual] = False
    pool = np.flatnonzero(rest)
    single = pool[_top_k(rng, log_single[pool], n_single)]
    forward = rng.random(single.size) < p_forward[single]
    src = np.concatenate([iu[mutual], ju[mutual],
                          np.where(forward, iu[single], ju[single])])
    dst = np.concatenate([ju[mutual], iu[mutual],
                          np.where(forward, ju[single], iu[single])])
    return src, dst


def _ensure_out_tie(src: np.ndarray, dst: np.ndarray, n: int) -> None:
    """Give every node at least one out-tie, in place, without changing
    the edge or mutual-dyad counts. The real graph has no node without
    an out-tie, and closeness covariates are undefined for such a node.
    """
    pairs = set(zip(src.tolist(), dst.tolist()))
    single = np.asarray([(d, s) not in pairs for s, d in zip(src.tolist(), dst.tolist())])
    out_deg = np.bincount(src, minlength=n)
    for v in np.flatnonzero(out_deg == 0):
        # turn round an unreciprocated in-tie of v; failing that, move the
        # start of any unreciprocated tie whose source can spare it to v
        for k in np.concatenate([np.flatnonzero(single & (dst == v)),
                                 np.flatnonzero(single & (dst != v))]):
            u, w = int(src[k]), int(dst[k])
            new = (v, u) if w == v else (v, w)
            pairs.discard((u, w))
            if out_deg[u] < 2 or new in pairs or new[::-1] in pairs:
                pairs.add((u, w))
                continue
            pairs.add(new)
            out_deg[u] -= 1
            out_deg[v] += 1
            src[k], dst[k] = new
            break


def congress_graph(seed: int, t: Target, draw: int):
    """Planted-block digraph with heavy-tailed activity.

    Returns (src, dst, weights, blocks). Block sizes and the activity
    profile are fixed; the seed and the draw number draw which node
    gets which activity and the wiring.
    """
    n = t.n
    rng = np.random.default_rng([seed, n, 1, draw])
    # uneven block sizes, largest first, summing to n
    share = np.linspace(2.0, 0.6, CONGRESS_BLOCKS)
    sizes = np.floor(share / share.sum() * n).astype(int)
    sizes[0] += n - sizes.sum()
    blocks = rng.permutation(np.repeat(np.arange(CONGRESS_BLOCKS), sizes))
    out_act = rng.permutation(_quantiles(n, 1.25))
    in_act = rng.permutation(_quantiles(n, 0.95))
    affinity = np.where(np.equal.outer(np.arange(CONGRESS_BLOCKS),
                                       np.arange(CONGRESS_BLOCKS)), 12.0, 1.0)
    iu, ju = np.triu_indices(n, 1)
    fwd = out_act[iu] * in_act[ju]
    rev = out_act[ju] * in_act[iu]
    log_aff = np.log(affinity[blocks[iu], blocks[ju]])
    log_mutual = 0.5 * np.log(fwd * rev) + log_aff
    log_single = np.log(fwd + rev) + log_aff
    src, dst = _directed_edges(rng, iu, ju, log_mutual, log_single,
                               fwd / (fwd + rev), t.edges, t.reciprocity)
    _ensure_out_tie(src, dst, n)
    weights = np.round(rng.uniform(0.001, 0.2, src.size), 6)
    return src, dst, weights, blocks


def sparse_graph(seed: int, t: Target, draw: int):
    """Mostly-local digraph: nodes on a long torus strip with ties to near
    neighbours only, so geodesics are long and the spectral gap small."""
    n = t.n
    rng = np.random.default_rng([seed, n, 3, draw])
    length, width = 5.0, 1.4
    pos = rng.random((n, 2)) * [length, width]
    iu, ju = np.triu_indices(n, 1)
    gap = np.abs(pos[iu] - pos[ju])
    gap = np.minimum(gap, [length, width] - gap)
    dist = np.hypot(gap[:, 0], gap[:, 1])
    near = dist < 0.3
    iu, ju, dist = iu[near], ju[near], dist[near]
    log_w = -dist / 0.06
    src, dst = _directed_edges(rng, iu, ju, log_w, log_w,
                               np.full(iu.size, 0.5), t.edges, t.reciprocity)
    _ensure_out_tie(src, dst, n)
    weights = np.round(rng.uniform(0.001, 0.2, src.size), 6)
    return src, dst, weights


# -- attribute table --------------------------------------------------------

STATES = ("AL", "AK", "AZ", "CA", "CO", "FL", "GA", "IL", "MA", "MI", "NC",
          "NY", "OH", "PA", "TX", "VA", "WA", "WI")
# Rough shares in a recent Congress; the rare levels are what make
# level-wise homophily terms sparse.
RACES = (("White", 0.75), ("Black", 0.11), ("Hispanic", 0.08),
         ("Asian", 0.035), ("Native American", 0.01), ("Pacific Islander", 0.005))
RELIGIONS = (("Protestant", 0.55), ("Catholic", 0.30), ("Jewish", 0.06),
             ("Unaffiliated", 0.04), ("Mormon", 0.02), ("Orthodox", 0.01),
             ("Muslim", 0.006), ("Hindu", 0.006), ("Buddhist", 0.004))


def _pick(rng, table, n):
    levels = [name for name, _ in table]
    p = np.asarray([w for _, w in table])
    return [levels[k] for k in rng.choice(len(levels), size=n, p=p / p.sum())]


def attribute_rows(seed: int, blocks: np.ndarray, node_ids: list[str]):
    """README attribute schema, party and chamber tied to the blocks.

    Party follows the block (first half Democrat, second Republican)
    with a few defectors and exactly two Independents.
    """
    n = len(node_ids)
    rng = np.random.default_rng([seed, n, 4])
    half = CONGRESS_BLOCKS // 2
    party = np.where(blocks < half, "Democrat", "Republican").astype(object)
    flip = rng.random(n) < 0.04
    party[flip] = np.where(party[flip] == "Democrat", "Republican", "Democrat")
    party[rng.choice(n, size=2, replace=False)] = "Independent"
    race = _pick(rng, RACES, n)
    religion = _pick(rng, RELIGIONS, n)
    age = np.clip(np.round(rng.normal(59.0, 11.0, n)), 27, 90).astype(int)
    tenure = np.minimum(age - 25, np.floor(rng.exponential(9.0, n))).astype(int)
    rows = []
    for i, node in enumerate(node_ids):
        hispanic = race[i] == "Hispanic" or (race[i] == "White" and rng.random() < 0.03)
        rows.append({
            "node_id": node,
            "party": party[i],
            "chamber": "Senate" if node.startswith("Sen") else "House",
            "state": STATES[int(rng.integers(len(STATES)))],
            "race": race[i],
            "ethnicity": "Hispanic" if hispanic else "Not Hispanic",
            "religion": religion[i],
            "sex": "F" if rng.random() < 0.27 else "M",
            "lgbtq": "Yes" if rng.random() < 0.02 else "No",
            "age": int(age[i]),
            "tenure": int(tenure[i]),
        })
    return rows


def _node_ids(n: int, blocks: np.ndarray | None) -> list[str]:
    if blocks is None:
        return [f"node{i:04d}" for i in range(n)]
    # two of the twelve blocks are Senate-heavy caucuses
    senate = np.isin(blocks, (1, CONGRESS_BLOCKS - 2))
    return [f"{'Sen' if senate[i] else 'Rep'}{i:04d}" for i in range(n)]


def _write_edges(path: Path, ids, src, dst, weights) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["source", "target", "weight"])
        for s, d, x in zip(src, dst, weights):
            w.writerow([ids[s], ids[d], repr(float(x))])


def _write_attrs(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def generate(seed: int, out: Path, shapes=tuple(SHAPES)) -> dict[str, Census]:
    """Write `<shape>_edges.csv` (and `<shape>_attrs.csv` for the congress
    shapes) under `out`; return each graph's census, or raise ValueError
    when every draw of a graph misses its target."""
    out.mkdir(parents=True, exist_ok=True)
    censuses = {}
    for name in shapes:
        target = SHAPES[name]
        n = target.n
        for draw in range(MAX_DRAWS):
            if name == "sparse":
                src, dst, weights = sparse_graph(seed, target, draw)
                blocks = None
            else:
                src, dst, weights, blocks = congress_graph(seed, target, draw)
            c = census(n, src, dst)
            problems = c.misses(target)
            if not problems:
                break
        else:
            raise ValueError(f"census of {name} off target in all {MAX_DRAWS} draws, "
                             f"the last: {'; '.join(problems)}")
        ids = _node_ids(n, blocks)
        _write_edges(out / f"{name}_edges.csv", ids, src, dst, weights)
        if blocks is not None:
            _write_attrs(out / f"{name}_attrs.csv", attribute_rows(seed, blocks, ids))
        censuses[name] = c
    return censuses


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    try:
        censuses = generate(args.seed, args.out)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, c in censuses.items():
        print(c.line(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Graph families used throughout the structure-learning experiments.

Vertices are labeled 1..p. Edges are unordered pairs stored as (i, j)
tuples with i < j. All generators are pure functions of their parameters
and seed, so repeated calls reproduce identical graphs.

Serialized graph files use 0-based vertex indices; in-memory graphs are
1-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# Restart budget for the configuration-model rejection sampler. Exceeding
# it signals that the requested degree is too close to p.
REGULAR_RESTART_BUDGET = 10_000


class GenerationFailure(RuntimeError):
    """Rejection sampling exhausted its restart budget."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices labeled 1..p."""

    p: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.p < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.p}")
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.p):
                raise ValueError(f"bad edge {e} for p={self.p}")

    @classmethod
    def from_edges(cls, p: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unnormalized pairs, rejecting loops/duplicates."""
        edges = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            e = (a, b) if a < b else (b, a)
            if e in edges:
                raise ValueError(f"duplicate edge {e}")
            edges.add(e)
        return cls(p, frozenset(edges))

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in range(1, self.p + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @cached_property
    def max_degree(self) -> int:
        if not self.edges:
            return 0
        return max(len(nb) for nb in self.adjacency.values())

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)


def make_tree(p: int, shape: str = "path", branching: int = 2) -> Graph:
    """Tree on p vertices: a path, or a balanced tree filled in BFS order."""
    if p < 2:
        raise ValueError(f"a tree needs p >= 2, got {p}")
    if shape == "path":
        return Graph(p, frozenset((i, i + 1) for i in range(1, p)))
    if shape == "balanced":
        b = branching
        if b < 2:
            raise ValueError(f"balanced tree needs branching >= 2, got {b}")
        # parent of vertex v (v >= 2) in heap-style labeling
        edges = [((v - 2) // b + 1, v) for v in range(2, p + 1)]
        return Graph.from_edges(p, edges)
    raise ValueError(f"unknown tree shape {shape!r}")


def make_star(p: int, deg: int) -> Graph:
    """Vertex 1 joined to vertices 2..deg+1; vertices deg+2..p isolated."""
    if not 1 <= deg <= p - 1:
        raise ValueError(f"star degree must satisfy 1 <= deg <= p-1, got {deg}")
    return Graph(p, frozenset((1, k) for k in range(2, deg + 2)))


def make_grid(side: int, periodic: bool = False) -> Graph:
    """side x side square lattice; periodic wraps both axes (side >= 3)."""
    if side < 2:
        raise ValueError(f"grid side must be >= 2, got {side}")
    if periodic and side < 3:
        raise ValueError("periodic wrap with side < 3 would duplicate edges")

    def vid(r, c):
        return 1 + r * side + c

    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append((vid(r, c), vid(r, c + 1)))
            elif periodic:
                edges.append((vid(r, c), vid(r, 0)))
            if r + 1 < side:
                edges.append((vid(r, c), vid(r + 1, c)))
            elif periodic:
                edges.append((vid(r, c), vid(0, c)))
    return Graph.from_edges(side * side, edges)


def dilute(g: Graph, rho: float, seed: int) -> Graph:
    """Keep each edge independently with probability 1 - rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"dilution probability must lie in [0,1], got {rho}")
    rng = np.random.default_rng(seed)
    kept = [e for e in g.sorted_edges() if rng.random() < 1.0 - rho]
    return Graph(g.p, frozenset(kept))


def make_random_regular(p: int, delta: int, seed: int) -> Graph:
    """Uniformly random simple delta-regular graph via the configuration
    model: pair stubs uniformly, restart on any loop or multi-edge."""
    if delta >= p:
        raise ValueError(f"degree {delta} must be < p={p}")
    if (p * delta) % 2 != 0:
        raise ValueError(f"p*delta must be even, got p={p}, delta={delta}")
    rng = np.random.default_rng(seed)
    stubs0 = np.repeat(np.arange(1, p + 1), delta)
    for _ in range(REGULAR_RESTART_BUDGET):
        stubs = stubs0.copy()
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            a = int(stubs[k])
            b = int(stubs[k + 1])
            if a == b:
                ok = False
                break
            e = (a, b) if a < b else (b, a)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(p, frozenset(edges))
    raise GenerationFailure(
        f"no simple {delta}-regular graph on {p} vertices found in "
        f"{REGULAR_RESTART_BUDGET} restarts"
    )


def make_regular_plus_edge(p: int, delta: int, seed: int) -> Graph:
    """Random delta-regular graph on vertices 1..p-2 plus the disjoint
    edge (p-1, p)."""
    if delta >= p - 2:
        raise ValueError(f"degree {delta} must be < p-2={p - 2}")
    core = make_random_regular(p - 2, delta, seed)
    return Graph(p, core.edges | {(p - 1, p)})


def make_toy_gp(p: int) -> Graph:
    """Double-hub graph: vertices 1 and 2 each joined to every vertex 3..p
    (no edge between 1 and 2); 2(p-2) edges total."""
    if p < 3:
        raise ValueError(f"double-hub graph needs p >= 3, got {p}")
    edges = [(1, k) for k in range(3, p + 1)] + [(2, k) for k in range(3, p + 1)]
    return Graph.from_edges(p, edges)


def make_toy_gp_prime(p: int) -> Graph:
    """Single edge (1, 2); vertices 3..p isolated."""
    if p < 3:
        raise ValueError(f"single-edge companion graph needs p >= 3, got {p}")
    return Graph(p, frozenset({(1, 2)}))


FAMILIES = (
    "tree",
    "star",
    "grid",
    "diluted-grid",
    "random-regular",
    "regular-plus-edge",
    "toy-gp",
    "toy-gp-prime",
)


@dataclass(frozen=True)
class GraphFamilySpec:
    """Declarative description of one graph-family instance."""

    family: str
    p: int = 0
    delta: int = 0
    deg: int = 0
    side: int = 0
    periodic: bool = False
    dilution: float = 0.0
    shape: str = "path"
    branching: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def num_vertices(self) -> int:
        if self.family in ("grid", "diluted-grid"):
            return self.side * self.side
        return self.p


def build_graph(spec: GraphFamilySpec, seed: int) -> Graph:
    """Materialize a family spec; `seed` drives the random families."""
    f = spec.family
    if f == "tree":
        return make_tree(spec.p, spec.shape, spec.branching)
    if f == "star":
        return make_star(spec.p, spec.deg)
    if f == "grid":
        return make_grid(spec.side, spec.periodic)
    if f == "diluted-grid":
        return dilute(make_grid(spec.side, spec.periodic), spec.dilution, seed)
    if f == "random-regular":
        return make_random_regular(spec.p, spec.delta, seed)
    if f == "regular-plus-edge":
        return make_regular_plus_edge(spec.p, spec.delta, seed)
    if f == "toy-gp":
        return make_toy_gp(spec.p)
    if f == "toy-gp-prime":
        return make_toy_gp_prime(spec.p)
    raise AssertionError(f)


def write_graph(g: Graph, path) -> None:
    """Write `p <count>` then one `e <i> <j>` line per edge, 0-based, sorted."""
    with open(path, "w") as fh:
        fh.write(f"p {g.p}\n")
        for i, j in g.sorted_edges():
            fh.write(f"e {i - 1} {j - 1}\n")


def _record_ints(tok: list, lineno: int, count: int, short: str) -> list:
    """The `count` integers after a record's tag; `short` names the lack.
    Each is ASCII digits with an optional sign: int() alone would also read
    `1_0` as 10 and other scripts' digits."""
    if len(tok) != count + 1:
        raise ValueError(f"line {lineno}: {short if len(tok) <= count else 'extra tokens'}")
    try:
        vals = [int(t) for t in tok[1:]]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    for t in tok[1:]:
        if not t.isascii() or "_" in t:
            raise ValueError(f"line {lineno}: {t!r} is not an integer of ASCII digits")
    return vals


def read_graph(path) -> Graph:
    """Parse the 0-based edge-list format; rejects duplicates and self-loops."""
    p = None
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            if tok[0] == "p":
                if p is not None:
                    raise ValueError(f"line {lineno}: repeated p line")
                (p,) = _record_ints(tok, lineno, 1, "p line without a vertex count")
                if p < 1:
                    raise ValueError(f"line {lineno}: vertex count must be >= 1, got {p}")
            elif tok[0] == "e":
                if p is None:
                    raise ValueError(f"line {lineno}: edge before p line")
                i, j = _record_ints(tok, lineno, 2, "edge needs two vertex indices")
                if not (0 <= i < p and 0 <= j < p):
                    raise ValueError(f"line {lineno}: vertex out of range")
                pairs.append((i + 1, j + 1))
            else:
                raise ValueError(f"line {lineno}: unrecognized record {tok[0]!r}")
    if p is None:
        raise ValueError("missing p line")
    return Graph.from_edges(p, pairs)

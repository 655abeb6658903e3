"""Exact solver for the game of Cops and Robbers.

The game: cops pick a starting multiset of vertices, then the robber picks
a vertex; each round every cop moves within its closed neighborhood, then
the robber does; capture is checked after each half-move.  Values count
rounds; a robber forced to start on a cop gives 0.

The solver performs breadth-layered retrograde analysis over the full
state space of one cop cardinality k: states are (cop multiset, robber
vertex) with cops to move, and the layered fixpoint computes the set of
states capturable within t rounds for t = 0, 1, 2, ... until nothing
changes.  States never reached are robber wins, reported as ``math.inf``.

Cop multisets are kept canonical (sorted tuples), which collapses cop
permutations; successors of a multiset are generated once and shared by
every sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Optional, Sequence

import numpy as np

from .graph import BudgetExceeded, DEFAULT_BUDGET, Graph

ROBBER_WINS = inf
GameValue = float | int  # a non-negative int, or math.inf for a robber win

# the robber-win value stored in solved tables, above any capture time
TABLE_INF = np.int32(2**20)


def is_finite(value: GameValue) -> bool:
    return value != ROBBER_WINS


def value_to_json(value: GameValue) -> int | str:
    return "inf" if value == ROBBER_WINS else int(value)


def value_from_json(value) -> GameValue:
    return ROBBER_WINS if value == "inf" else int(value)


def canonical_config(positions: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted, non-decreasing) cop multiset."""
    config = tuple(sorted(int(v) for v in positions))
    if not config:
        raise ValueError("a cop configuration needs at least one cop")
    return config


@dataclass(frozen=True)
class GameState:
    """A position with the cops to move next."""

    cops: tuple[int, ...]
    robber: int

    def is_capture(self) -> bool:
        return self.robber in self.cops


class SolveTable:
    """Solved value table for every size-k cop multiset on one graph.

    ``values[config_index, robber]`` is the number of rounds the cops need
    from that cops-to-move state under optimal play (``TABLE_INF`` encodes a
    robber win).  Configurations are in lexicographic order, so "first
    index" means "lexicographically least".
    """

    def __init__(self, g: Graph, k: int, configs: list[tuple[int, ...]], values: np.ndarray):
        self.graph = g
        self.k = k
        self.configs = configs
        self.index = {c: i for i, c in enumerate(configs)}
        self.values = values

    def state_value(self, cops: Iterable[int], robber: int) -> GameValue:
        config = canonical_config(cops)
        if config not in self.index:
            raise KeyError(f"state {config} not present in this table (k={self.k})")
        raw = int(self.values[self.index[config], robber])
        return ROBBER_WINS if raw >= int(TABLE_INF) else raw

    def placement_value(self, cops: Iterable[int]) -> GameValue:
        """capt(G; S): worst robber start against this placement."""
        config = canonical_config(cops)
        if config not in self.index:
            raise KeyError(f"placement {config} not present in this table (k={self.k})")
        raw = int(self.values[self.index[config]].max())
        return ROBBER_WINS if raw >= int(TABLE_INF) else raw

    def placement_values(self) -> np.ndarray:
        """Per-configuration capt values as an int array (TABLE_INF-capped)."""
        return np.minimum(self.values.max(axis=1), TABLE_INF)

    def to_json_obj(self) -> list:
        out = []
        for i, config in enumerate(self.configs):
            for r in range(self.graph.n):
                raw = int(self.values[i, r])
                out.append([list(config), r, "inf" if raw >= int(TABLE_INF) else raw])
        return out


def _config_successors(closed: Sequence[tuple[int, ...]], config: tuple[int, ...]):
    """Distinct canonical cop-team moves from ``config``."""
    return {tuple(sorted(p)) for p in itertools.product(*(closed[v] for v in config))}


def solve_k(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> SolveTable:
    """Retrograde-solve the whole k-cop state space of ``g``."""
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0:
        raise ValueError("cannot play on the empty graph")
    n = g.n
    n_configs = comb(n + k - 1, k)
    if n_configs * n > budget:
        raise BudgetExceeded("solve_k", n_configs * n, budget)

    configs = list(itertools.combinations_with_replacement(range(n), k))
    index = {c: i for i, c in enumerate(configs)}
    closed = g.closed

    # CSR successor structure over configuration ids
    succ_ids: list[int] = []
    offsets = np.empty(n_configs + 1, dtype=np.int64)
    offsets[0] = 0
    work = n_configs * n
    for i, c in enumerate(configs):
        raw = 1
        for v in c:
            raw *= len(closed[v])
        work += raw
        if work > budget:
            raise BudgetExceeded("solve_k", work, budget)
        succs = sorted(index[t] for t in _config_successors(closed, c))
        succ_ids.extend(succs)
        offsets[i + 1] = len(succ_ids)
    succ_arr = np.asarray(succ_ids, dtype=np.int64)

    capture = np.zeros((n_configs, n), dtype=bool)
    for i, c in enumerate(configs):
        capture[i, list(c)] = True

    closed_cols = [np.asarray(closed[r], dtype=np.int64) for r in range(n)]

    values = np.full((n_configs, n), TABLE_INF, dtype=np.int32)
    values[capture] = 0

    # chunk the cop-move min-reduction to bound gather memory
    total_edges = len(succ_arr)
    target_cells = 4_000_000
    chunk = max(1, min(n_configs, target_cells // max(1, (total_edges // n_configs + 1) * n)))

    robber_turn = np.empty_like(values)
    while True:
        for r in range(n):
            np.max(values[:, closed_cols[r]], axis=1, out=robber_turn[:, r])
        robber_turn[capture] = 0

        new_values = np.empty_like(values)
        for lo in range(0, n_configs, chunk):
            hi = min(lo + chunk, n_configs)
            seg = succ_arr[offsets[lo] : offsets[hi]]
            starts = (offsets[lo : hi + 1] - offsets[lo])[:-1]
            part = np.minimum.reduceat(robber_turn[seg], starts, axis=0)
            new_values[lo:hi] = part
        np.minimum(new_values, TABLE_INF - 1, out=new_values)
        new_values += 1
        new_values[capture] = 0

        if np.array_equal(new_values, values):
            break
        values = new_values
        robber_turn = np.empty_like(values)

    return SolveTable(g, k, configs, values)


def solve_placement(
    g: Graph, placement: Iterable[int], budget: int = DEFAULT_BUDGET
) -> tuple[GameValue, SolveTable]:
    """capt(G; S) for one placement, plus the full solved table it came from."""
    config = canonical_config(placement)
    for v in config:
        g.check_vertex(v)
    table = solve_k(g, len(config), budget=budget)
    return table.placement_value(config), table


def capt_k(
    g: Graph,
    k: int,
    budget: int = DEFAULT_BUDGET,
    sets_only: bool = False,
    table: SolveTable | None = None,
) -> tuple[GameValue, Optional[tuple[int, ...]]]:
    """Minimum capture time over all size-k cop multisets, with witness.

    The witness is the lexicographically least optimal configuration, or
    ``None`` when every placement loses.  ``sets_only`` restricts the
    minimization to duplicate-free placements (opt-in: it is unproven
    that duplicates never help).
    """
    if table is None:
        table = solve_k(g, k, budget=budget)
    per_config = table.placement_values()
    best = ROBBER_WINS
    witness = None
    for i, c in enumerate(table.configs):
        if sets_only and len(set(c)) != k:
            continue
        v = int(per_config[i])
        if v < int(TABLE_INF) and v < best:
            best = v
            witness = c
            if best == 0:
                break
    return best, witness


def cop_number(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Least k for which k cops win; disconnected graphs sum over components."""
    if g.n == 0:
        return 0
    comps = g.components()
    if len(comps) > 1:
        total = 0
        for comp in comps:
            sub, _ = g.induced(comp)
            total += cop_number(sub, budget=budget)
        return total
    for k in range(1, g.n + 1):
        value, _ = capt_k(g, k, budget=budget)
        if value != ROBBER_WINS:
            return k
    raise AssertionError("unreachable: n cops always capture")


def optimal_moves(
    g: Graph,
    table: SolveTable,
    state: GameState,
    mover: str,
) -> list:
    """All optimal moves at ``state`` for the given side.

    Cop moves are successor configurations minimizing the continuation
    value; robber moves are vertices in N[robber] maximizing it.  The
    list is ordered lexicographically, so its first entry is the
    deterministic default.  Terminal states return [].
    """
    config = canonical_config(state.cops)
    if config not in table.index:
        raise KeyError(f"state {config} not present in table (k={table.k})")
    if state.is_capture():
        return []
    if mover == "cops":
        succs = sorted(_config_successors(g.closed, config))
        scored = []
        for c2 in succs:
            if state.robber in c2:
                scored.append((0, c2))
            else:
                row = table.values[table.index[c2]]
                cont = int(max(row[r2] for r2 in g.closed[state.robber]))
                scored.append((cont, c2))
        best = min(s for s, _ in scored)
        return [c2 for s, c2 in scored if s == best]
    if mover == "robber":
        row = table.values[table.index[config]]
        options = [(int(row[r2]), r2) for r2 in g.closed[state.robber]]
        best = max(s for s, _ in options)
        return [r2 for s, r2 in options if s == best]
    raise ValueError(f"mover must be 'cops' or 'robber', got {mover!r}")

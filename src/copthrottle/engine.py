"""Exact solver for the game of Cops and Robbers.

The game: cops pick a starting multiset of vertices, then the robber picks
a vertex; each round every cop moves within its closed neighborhood, then
the robber does; capture is checked after each half-move.  Values count
rounds; a robber forced to start on a cop gives 0.

``solve_k`` runs a layered boolean fixpoint over ordered cop tuples: a
dense bool array of shape (n,)*(k+1), robber last, holds the states won
within t rounds.  A round folds the robber axis with AND over N[r], then
each cop axis in turn with OR over N[c] (the team move's min over a
product of neighbourhoods splits per cop), and stamps t on the canonical
(sorted) rows newly won.  States never won are robber wins (``math.inf``).

The budget unit is the n^(k+1) cells, charged before any allocation; a
round costs about (k+1)*max|N[v]| byte operations per cell, and peak
memory is about 4 * n^(k+1) bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
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


def _table_value(raw) -> GameValue:
    """A table entry as a game value: TABLE_INF or above is a robber win."""
    return ROBBER_WINS if raw >= TABLE_INF else int(raw)


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
        self.graph.check_vertex(robber)
        config = canonical_config(cops)
        if config not in self.index:
            raise KeyError(f"state {config} not present in this table (k={self.k})")
        return _table_value(self.values[self.index[config], robber])

    def placement_value(self, cops: Iterable[int]) -> GameValue:
        """capt(G; S): worst robber start against this placement."""
        config = canonical_config(cops)
        if config not in self.index:
            raise KeyError(f"placement {config} not present in this table (k={self.k})")
        return _table_value(self.values[self.index[config]].max())

    def placement_values(self) -> np.ndarray:
        """Per-configuration capt values as an int array (TABLE_INF-capped)."""
        return np.minimum(self.values.max(axis=1), TABLE_INF)

    def to_json_obj(self) -> list:
        out = []
        for i, config in enumerate(self.configs):
            for r in range(self.graph.n):
                out.append([list(config), r, value_to_json(_table_value(self.values[i, r]))])
        return out


def _config_successors(closed: Sequence[tuple[int, ...]], config: tuple[int, ...]):
    """Distinct canonical cop-team moves from ``config``."""
    return {tuple(sorted(p)) for p in itertools.product(*(closed[v] for v in config))}


def _neighbour_fold(src, axis, slots, out, buf, op) -> None:
    """out = op over the slots j of src with ``axis`` re-indexed by slots[j]."""
    np.take(src, slots[0], axis=axis, out=out, mode="clip")
    for s in slots[1:]:
        np.take(src, s, axis=axis, out=buf, mode="clip")
        op(out, buf, out=out)


def solve_k(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> SolveTable:
    """Retrograde-solve the whole k-cop state space of ``g``.

    The budget unit is the dense cell count n^(k+1), charged before any
    allocation.  Each fixpoint round costs about (k+1)*D times that many
    byte operations, D being the largest closed neighbourhood, and a solve
    takes one round more than its largest finite value.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0:
        raise ValueError("cannot play on the empty graph")
    n = g.n
    if n ** (k + 1) > budget:
        raise BudgetExceeded("solve_k", n ** (k + 1), budget)

    configs = list(itertools.combinations_with_replacement(range(n), k))
    rows = np.ravel_multi_index(np.array(configs).T, (n,) * k)
    # slot j maps each vertex to its j-th closed neighbour, padded with itself
    slots = [
        np.array([c[j] if j < len(c) else v for v, c in enumerate(g.closed)])
        for j in range(max(len(c) for c in g.closed))
    ]

    shape = (n,) * (k + 1)
    axes = np.indices(shape, sparse=True)
    capture = np.zeros(shape, dtype=bool)
    for a in range(k):
        capture |= axes[a] == axes[k]
    won, step, buf = capture.copy(), np.empty(shape, bool), np.empty(shape, bool)
    values = np.full((len(configs), n), TABLE_INF, dtype=np.int32)
    values[capture.reshape(-1, n)[rows]] = 0

    t = 0
    while True:
        t += 1
        # robber to move: lost if on a cop or if every move in N[r] is won
        _neighbour_fold(won, k, slots, step, buf, np.logical_and)
        step |= capture
        # cops to move: the min over N[c_1] x ... x N[c_k] splits per cop
        for a in range(k):
            _neighbour_fold(step, a, slots, won, buf, np.logical_or)
            step, won = won, step
        np.logical_or(step, capture, out=won)
        fresh = won.reshape(-1, n)[rows] & (values == TABLE_INF)
        if not fresh.any():
            break
        values[fresh] = t
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
    if sets_only:
        repeats = np.array([len(set(c)) != k for c in table.configs])
        per_config[repeats] = TABLE_INF
    # argmin takes the first minimum, so the witness is the least config
    i = int(per_config.argmin())
    value = _table_value(per_config[i])
    return value, table.configs[i] if is_finite(value) else None


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

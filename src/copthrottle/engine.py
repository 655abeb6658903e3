"""Exact solver for the game of Cops and Robbers.

The game: cops pick a starting multiset of vertices, then the robber picks
a vertex; each round every cop moves within its closed neighborhood, then
the robber does; capture is checked after each half-move.  Values count
rounds; a robber forced to start on a cop gives 0.

``solve_k`` runs a boolean fixpoint over canonical (sorted) cop multisets
in layers, moving one cop at a time.  Its budget unit is the largest
layer's cells.

A robber win is ``ROBBER_WINS`` (``math.inf``) outside a solved table,
compared, added and multiplied like any number; inside a table it is the
int32 ``TABLE_INF``, which only ``_table_value`` converts.
``value_to_json`` prints game values.  ``team_moves`` is the one
definition of the cops' team move.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Optional

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


class ConfigList(list):
    """The configurations of one (n, k) in lexicographic order: a list that
    every table of that size shares, so it refuses to be changed."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a table's configurations are shared and read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):  # pickle and copy rebuild it whole, not item by item
        return ConfigList, (list(self),)


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
        self.values = values

    def rank(self, cops: Iterable[int]) -> int:
        """Row of a cop multiset in ``values``: its lexicographic rank."""
        config = canonical_config(cops)
        n, k = self.graph.n, self.k
        if len(config) != k or not 0 <= config[0] <= config[-1] < n:
            raise KeyError(f"state {config} not present in this table (k={k})")
        # multisets below config, position by position: hockey-stick sums
        rank, low = 0, 0
        for i, c in enumerate(config):
            rank += comb(n - low + k - i - 1, k - i) - comb(n - c + k - i - 1, k - i)
            low = c
        return rank

    def state_value(self, cops: Iterable[int], robber: int) -> GameValue:
        self.graph.check_vertex(robber)
        return _table_value(self.values[self.rank(cops), robber])

    def placement_value(self, cops: Iterable[int]) -> GameValue:
        """capt(G; S): worst robber start against this placement."""
        return _table_value(self.values[self.rank(cops)].max())

    def placement_values(self) -> np.ndarray:
        """Per-configuration capt values as an int array (TABLE_INF for a robber win)."""
        return self.values.max(axis=1)

    def to_json_obj(self) -> list:
        return [
            [list(config), r, value_to_json(_table_value(raw))]
            for config, row in zip(self.configs, self.values.tolist())
            for r, raw in enumerate(row)
        ]


def _rank(rows: np.ndarray, among: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank of each sorted row among ``among``, by mixed-radix keys."""
    # Python-int keys where n**width would overflow int64 (many cops, few vertices)
    dtype = np.int64 if n ** rows.shape[1] < 2**63 else object
    radix = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=dtype)
    return np.searchsorted(among @ radix, rows @ radix)


def _layer_cells(n: int, k: int) -> int:
    return max(comb(n + j - 1, j) * comb(n + k - j - 1, k - j) for j in range(k + 1)) * n


@functools.lru_cache(maxsize=64)
def _layout(n: int, k: int):
    """The graph-free parts of a k-cop solve on n vertices, shared read-only:
    the ConfigList, the robber-major capture table and, per layer j < k,
    min U, the row offset of U - min U in layer j+1 (rows (U, M), robber
    last) and the (n, |M|) table of rank(M + c')."""
    multisets = functools.partial(itertools.combinations_with_replacement, range(n))
    configs = ConfigList(multisets(k))
    rows = [np.array(list(multisets(j)), dtype=np.int64) for j in range(k + 1)]  # sorted rows
    dtype = np.int32 if _layer_cells(n, k) // n < 2**31 else np.int64
    parts = []
    for j in range(k):
        moved, unmoved = rows[j], rows[k - j]
        grown = np.sort(np.column_stack([np.repeat(moved, n, axis=0), np.tile(np.arange(n), len(moved))]))
        plus = _rank(grown, rows[j + 1], n).reshape(len(moved), n).T
        minus = _rank(unmoved[:, 1:], rows[k - j - 1], n)[:, None] * len(rows[j + 1])
        parts.append((unmoved[:, 0], minus.astype(dtype), plus.astype(dtype)))
    capture = np.zeros((n, len(rows[k])), dtype=bool)
    capture[rows[k], np.arange(len(rows[k]))[:, None]] = True
    for a in [capture, *(x for part in parts for x in part)]:
        a.flags.writeable = False
    return configs, capture, parts


def _fold(op, src: np.ndarray, pieces: list, out: np.ndarray) -> None:
    """out = op over ``src.take(i, axis=0)`` for every index row i, the rows
    coming in blocks that are each gathered into their own view first."""
    for i, (block, gathered) in enumerate(pieces):
        src.take(block, axis=0, out=gathered, mode="clip")
        if i == 0:
            op.reduce(gathered, axis=0, out=out)
        else:
            op(out, op.reduce(gathered, axis=0), out=out)


def solve_k(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> SolveTable:
    """Retrograde-solve the whole k-cop state space of ``g``.

    Round t+1 starts from the (configs, n) table of states won within t
    rounds.  Layer k is the robber's half-move: capture, or an AND over
    N[r] of that table.  Then the cops move one at a time: layer j holds
    the states (M, U, r), M the j cops already moved and U the k - j yet
    to move, and is the OR over c' in N[min U] of layer j+1 at
    (M + c', U - min U).  Layer 0 is the table won within t+1 rounds.  A
    solve runs one round more than its largest finite value.  The gather
    plans, rank(M + c') by mixed-radix keys and ``np.searchsorted`` and
    rank(U - min U), are built once per solve.

    The budget unit is the largest layer's cells, max over j of
    C(n+j-1, j) * C(n+k-j-1, k-j) * n, charged before any allocation.  A
    round gathers D rows of ceil(n/64) words per layer row, D being the
    largest closed neighbourhood.  Peak memory is about one byte per cell
    of the largest layer (at least 1 MiB) for gathered rows, 4*D bytes per
    row of every layer for the plans, and some 16 bytes per table entry.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 0:
        raise ValueError("cannot play on the empty graph")
    cells = _layer_cells(g.n, k)
    if cells > budget:
        raise BudgetExceeded("solve_k", cells, budget)
    configs, capture, parts = _layout(g.n, k)
    n, size = capture.shape
    words, width = -(-n // 64), -(-n // 8)
    # slot s maps each vertex to its s-th closed neighbour, padded with itself
    slots = np.array([
        [c[s] if s < len(c) else v for v, c in enumerate(g.closed)]
        for s in range(max(len(c) for c in g.closed))
    ])
    # cop layers pack the robber axis into 64-bit words, layer j in buffer j % 2
    plans = [(plus[slots[:, least]] + minus).reshape(len(slots), -1) for least, minus, plus in parts]
    rows = max(p.shape[1] for p in plans)
    bufs = [np.empty(rows * words, np.uint64) for _ in range(2)]
    # one gather buffer per solve, holding at least one slot of any fold; a
    # fold gathers as many slots at once as it holds
    gather = np.empty(max(cells, 8 * words * rows, 2**20), np.uint8)

    def split(index, out):
        group = max(1, len(gather) // out.nbytes)
        blocks = [index[i : i + group] for i in range(0, len(index), group)]
        views = [gather[: len(b) * out.nbytes].view(out.dtype).reshape(len(b), *out.shape) for b in blocks]
        return list(zip(blocks, views))

    folds, src = [], np.zeros((size, words), np.uint64)
    for j in reversed(range(len(parts))):
        out = bufs[j % 2][: plans[j].shape[1] * words].reshape(-1, words)
        folds.append((src, split(plans[j], out), out))
        src = out
    # the robber moves on robber-major (vertex, config) tables, where N[r] picks
    # rows; bit i of packed byte b is robber 8b + i, and rows from n on stay 0
    weight = (1 << np.arange(8, dtype=np.uint8))[:, None]
    step, spread = np.zeros((2, width, 8, size), np.uint8)
    won_all, flat = np.zeros(step.shape, bool), np.empty((width, size), np.uint8)
    step_r, won = step.reshape(-1, size)[:n].view(bool), won_all.reshape(-1, size)[:n]
    robber = split(slots, step_r)
    packed, layer0 = (a.view(np.uint8)[:, :width].T for a in (folds[0][0], src))
    np.copyto(won, capture)
    counts = np.zeros(capture.shape, np.int32)
    t, last = 0, -1
    while (total := np.count_nonzero(won)) != last:  # won only grows
        counts += won
        t, last = t + 1, total
        # robber to move: lost if on a cop or if every move in N[r] is won
        _fold(np.logical_and, won, robber, step_r)
        step_r |= capture
        packed[...] = np.bitwise_or.reduce(np.multiply(step, weight, out=step), axis=1, out=flat)
        # cops to move, one at a time: the least unmoved cop steps in N[min U]
        for src, blocks, out in folds:
            _fold(np.bitwise_or, src, blocks, out)
        # a cop may stay put, so layer 0 already holds every capture
        flat[...] = layer0
        np.not_equal(np.bitwise_and(flat[:, None], weight, out=spread), 0, out=won_all)
    # counts[r, c]: rounds s < t after which the state was won within s
    counts[counts == 0] = t - TABLE_INF  # never won: TABLE_INF once flipped
    np.subtract(t, counts, out=counts)
    return SolveTable(g, k, configs, np.ascontiguousarray(counts.T))


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
        return sum(cop_number(g.induced(comp)[0], budget=budget) for comp in comps)
    for k in range(1, g.n + 1):
        value, _ = capt_k(g, k, budget=budget)
        if value != ROBBER_WINS:
            return k
    raise AssertionError("unreachable: n cops always capture")


def team_moves(g: Graph, cops: Iterable[int]) -> list[tuple[int, ...]]:
    """Every cop multiset one team move reaches from ``cops``, each cop
    staying or stepping to a neighbour, in lexicographic order."""
    config = canonical_config(cops)
    # one cop at a time, least unmoved first: (moved, unmoved) pairs
    level = {((), config)}
    for _ in config:
        level = {(tuple(sorted(m + (c,))), u[1:]) for m, u in level for c in g.closed[u[0]]}
    return sorted(m for m, _ in level)


def optimal_moves(g: Graph, table: SolveTable, state: GameState, mover: str) -> list:
    """All optimal moves at ``state`` for the given side.

    Cop moves are successor configurations minimizing the continuation
    value; robber moves are vertices in N[robber] maximizing it.  The
    list is ordered lexicographically, so its first entry is the
    deterministic default.  Terminal states return [].
    """
    row = table.values[table.rank(state.cops)]
    if state.is_capture():
        return []
    if mover == "cops":
        succs = team_moves(g, state.cops)
        rows = table.values[[table.rank(c) for c in succs]]
        scores = rows[:, list(g.closed[state.robber])].max(axis=1)
        scores[[state.robber in c for c in succs]] = 0
        best = scores.min()
        return [c for c, s in zip(succs, scores) if s == best]
    if mover == "robber":
        best = max(row[r2] for r2 in g.closed[state.robber])
        return [r2 for r2 in g.closed[state.robber] if row[r2] == best]
    raise ValueError(f"mover must be 'cops' or 'robber', got {mover!r}")

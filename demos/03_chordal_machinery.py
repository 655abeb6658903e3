"""
Chordal graphs: recognition, retractions, and a refuted shortcut
================================================================

Chordal graphs admit perfect elimination orderings and are cop-win.  The
claimed shortcut capt(G;S) = max_v d(v,S) is checked against the exact
engine here, including the 9-vertex chordal counterexample where it
breaks (the robber buys an extra round because a boundary vertex of the
cop's start is cornered by nobody).
"""

from copthrottle import (
    chordal_throttling,
    corners,
    boundary_vertices,
    lexbfs_order,
    retraction_onto,
    solve_placement,
)
from copthrottle.families import cycle, path, random_chordal
from copthrottle.graph import Graph, max_distance

# Recognition with witnesses: C4 is the smallest non-chordal graph.
print("C4 verdict:", lexbfs_order(cycle(4)))
chordal = random_chordal(10, seed=1)
print(f"{chordal.name}: chordal = {lexbfs_order(chordal).chordal}")

# Connected induced subgraphs of a chordal graph are retracts: peel corners.
tri_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], name="triangle+pendant")
print("retraction onto the edge 2-3:", retraction_onto(tri_pendant, [2, 3]))

# The distance formula agrees with the engine on paths and most chordal
# graphs; throttle a path both ways.
print("max_v d(v, {2,6}) on P9 =", max_distance(path(9), {2, 6}),
      " engine:", solve_placement(path(9), (2, 6))[0])
print("chordal throttling of P9:", chordal_throttling(path(9)))

# The counterexample: chordal, radius 3 from vertex 8, but capture needs 4.
g = Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (1, 7),
              (1, 8), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)],
          name="counterexample")
assert lexbfs_order(g).chordal
print("\ncounterexample: max_v d(v, {8}) =", max_distance(g, {8}),
      "but capt(G; {8}) =", solve_placement(g, (8,))[0])
print("boundary vertices of 8:", boundary_vertices(g, 8))
print("vertex 3 cornered by:", [u for v, u in corners(g) if v == 3] or "nobody")
print("(so the boundary set is not a set of disjoint corners, and the")
print(" distance shortcut overshoots reality by one round)")

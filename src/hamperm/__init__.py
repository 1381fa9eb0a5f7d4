"""hamperm: Hamilton circuits via admissible permutation products.

Subpackages/modules:
    graphs   - graph/digraph types, random models, edge-list I/O
    contract - degree-2 chain reduction, the reduced host and the
               2-vertex graph
    tour     - pseudo-Hamilton circuits, moves, rotations, abbreviations
    solver   - randomized circuit search for graphs and digraphs
    oracle   - brute force, sigma decomposition, constructive convergence,
               enumerate_all (every circuit by admissible moves) and
               held_karp (exact small TSP optimum)
    problab  - closed-form probabilities and Monte Carlo estimators
    tsp      - weighted tours: iterated local search (2-opt and Or-opt on
               nearest-neighbour lists, double-bridge kicks)
    cli      - command-line interface
"""

__version__ = "0.1.0"

"""Property B analysis for n-uniform hypergraphs.

Counts ordered simple pairs (edge pairs sharing exactly one vertex),
runs the order-driven greedy two-coloring, measures exact separation
probabilities, builds the cross-intersecting set-pair family whose sum
detects extremal instances, recovers the forced complete subhypergraph,
and verifies the bound exhaustively at small scale.

Import each name from the module that defines it, e.g.
``from propb.hypergraph import m2``.
"""

__version__ = "0.2.0"

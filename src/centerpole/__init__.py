"""Exact tools for centerpole-set experiments.

Each name is imported from the module that defines it, as in
``from centerpole.certifier import certify_schedule``; importing the
package alone loads no module.

- ``cube``: cube vertices, the (k, s) sandwich sets of Z^(1+k), and the
  L-shaped facet sets the covering code takes as input.
- ``covering``: the constructive shift table that covers each facet set
  by a unit translate of a sandwich, and its checks.
- ``geometry``: exact rational points, hyperplanes, ranks and inverses.
- ``tshape``: T-shape decisions with hyperplane certificates.
- ``colorings``: witness coloring rules and the seeded violation scan.
- ``certifier``: finite-window symmetry graphs and their k-coloring
  verdicts; ``sat`` is the SAT core behind them.
- ``cli``: the ``centerpole`` command.
"""

__version__ = "0.1.0"

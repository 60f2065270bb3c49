"""Accuracy of a released generator against the stream it summarises."""

from __future__ import annotations

import numpy as np

#: Points on [0, 1] at which the W1 integrand is evaluated (2^16 cells).
GRID = np.linspace(0.0, 1.0, (1 << 16) + 1)


def w1_error(release, data) -> float:
    """1-Wasserstein distance between an interval release and ``data``.

    ``W1 = integral over [0, 1] of |F_release - F_data|``.  The release's CDF
    is exact: the generator draws uniformly inside each leaf, so its CDF is
    linear between leaf endpoints.  No sample is drawn, so the figure
    carries no sampling noise.
    """
    probabilities = release.generator.leaf_probabilities()
    cells = sorted((release.domain.cell_bounds(cell), weight)
                   for cell, weight in probabilities.items())
    knots = np.array([cells[0][0][0]] + [bounds[1] for bounds, _ in cells])
    mass = np.concatenate([[0.0], np.cumsum([weight for _, weight in cells])])
    released = np.interp(GRID, knots, mass)
    empirical = np.searchsorted(np.sort(np.ravel(data)), GRID, side="right") / np.size(data)
    return float(np.mean(np.abs(released - empirical)))

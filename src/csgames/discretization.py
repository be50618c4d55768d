"""State-space discretization with a certified uniform error bound.

Everything here reads the grid game of a spec (spec.game, the FiniteCSG over
grid points with kernel p(y | x, a) = delta(x, a, y) * mu(y)).  Grid points
are grouped into cells whose members agree with a representative point to
within a resolution gamma, simultaneously in per-player costs (summed over
layers, max over profiles) and in transition densities (max over profiles).
The density distance is the L1 distance between kernel rows, which equals
the density difference integrated against the quadrature weights.
A member must be strictly within gamma of its representative; the greedy
build_partition meets that by construction and surrogate_game checks it once
(check_partition) before collapsing each cell to its representative.
build_partition computes cost distances first and density distances only
where the cost test passes: a point that fails it cannot join, so its density
distance is never read, and every one that is read is computed as it always
was, so the partition is the one full distance rows would give.

The surrogate game's discounted costs differ from the original by at most

    error_bound(gamma) = gamma * (1 - alpha + b * alpha) / (1 - alpha)

uniformly over strategies, states, players, and layers.  The bound comes from
the one-step coupling: the cost mismatch contributes gamma in total and the
kernel mismatch contributes at most b * gamma per step at discount alpha.
"""

from dataclasses import dataclass, replace

import numpy as np

from .evaluation import evaluate_markov_profile, evaluate_profile
from .game import FiniteCSG, StationaryProfile, _frozen_array, validate_game

__all__ = [
    "Partition",
    "DiscretizedGame",
    "ApproximationReport",
    "error_bound",
    "resolution_for",
    "build_partition",
    "check_partition",
    "surrogate_game",
    "grid_game",
    "surrogate_grid_game",
    "lift_strategy",
    "verify_approximation_bound",
]


def error_bound(resolution, discount, cost_bound):
    """Uniform discounted-cost error certified by a partition at `resolution`."""
    if not resolution >= 0.0:
        raise ValueError("resolution must be nonnegative")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    return resolution * (1.0 - discount + cost_bound * discount) / (1.0 - discount)


def resolution_for(error, discount, cost_bound):
    """Partition resolution whose certified error equals `error` (inverse of
    error_bound)."""
    if not error >= 0.0:
        raise ValueError("error must be nonnegative")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    return error * (1.0 - discount) / (1.0 - discount + cost_bound * discount)


@dataclass(frozen=True)
class Partition:
    """Cells over grid indices with one representative point per cell."""

    resolution: float
    cells: tuple
    representatives: np.ndarray

    def __post_init__(self):
        cells = tuple(_frozen_array(c, dtype=int) for c in self.cells)
        reps = _frozen_array(self.representatives, dtype=int)
        if len(cells) != reps.shape[0]:
            raise ValueError("one representative per cell required")
        n_points = sum(c.size for c in cells)
        members = np.concatenate(cells) if cells else np.array([], dtype=int)
        if n_points == 0 or np.unique(members).size != n_points:
            raise ValueError("cells must disjointly cover the grid")
        owner = np.repeat(np.arange(len(cells)), [c.size for c in cells])
        out_of_range = np.bincount(owner[(members < 0) | (members >= n_points)],
                                   minlength=len(cells)) > 0
        no_rep = np.bincount(owner[members == reps[owner]], minlength=len(cells)) == 0
        if np.any(out_of_range | no_rep):
            k = int(np.argmax(out_of_range | no_rep))
            raise ValueError("cell member index out of range" if out_of_range[k]
                             else f"representative of cell {k} is not a member")
        cell_of = np.empty(n_points, dtype=int)
        cell_of[members] = owner
        cell_of.setflags(write=False)
        object.__setattr__(self, "resolution", float(self.resolution))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "cell_of", cell_of)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_points(self):
        return self.cell_of.shape[0]


@dataclass(frozen=True)
class DiscretizedGame:
    """Surrogate game over the cells of the partition it came from, and its certified bound."""

    game: FiniteCSG
    certified_error: float


def _cost_distances(game, rep, points):
    """Cost distances of grid `points` to `rep`: the max-over-profiles
    absolute difference, summed over layers and maximized over players."""
    costs = np.abs(game.costs[:, :, points, :] - game.costs[:, :, rep:rep + 1, :])
    return costs.max(axis=3).sum(axis=1).max(axis=0)


def _density_distances(game, rep, points):
    """Density distances of grid `points` (an index array) to `rep`: the L1
    distance between kernel rows, maximized over profiles.  Gathered rows are
    a copy, so they are differenced and made absolute in place."""
    rows = game.transitions[points]
    rows -= game.transitions[rep]
    np.abs(rows, out=rows)
    return rows.sum(axis=2).max(axis=1)


def _require_within(k, cell, distances, resolution):
    """Raise ValueError unless every member of cell k is strictly within
    `resolution` of its representative in both distances (NaN fails)."""
    for name, d in zip(("cost", "density"), distances):
        if not np.all(d < resolution):
            raise ValueError(
                f"cell {k}: point {int(cell[np.argmax(d)])} has {name} distance "
                f"{d.max():.6g} >= resolution {resolution:.6g}"
            )


def build_partition(spec, resolution):
    """Greedy first-fit covering of the grid in index order.

    Each point joins the first existing cell whose representative is strictly
    within `resolution` in both the cost and the density distance, otherwise
    it opens a new cell with itself as representative.  That is the test
    check_partition applies, so the partition meets it by construction; a
    new representative must pass it against itself, which fails only on a
    NaN row and raises ValueError.

    Cells fill as they open: a new representative m takes every later point
    that no earlier cell took and that it accepts, which is where first fit
    puts it, since cells open in index order.  m computes cost distances to
    the later points first, and density distances only for itself and the
    untaken points whose cost distance is below `resolution`; no other point
    can join.  Each is computed as check_partition computes it, so the
    partition is the one full distance rows would give.
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    game = spec.game
    n = game.n_states
    cell_of = np.full(n, -1)
    representatives = []
    for m in range(n):
        if cell_of[m] >= 0:
            continue
        k = len(representatives)
        cost = _cost_distances(game, m, slice(m, None))
        # Offsets from m; 0 (m itself) is among them unless m's own cost row
        # is NaN, which _require_within reports before the density.
        near = np.flatnonzero((cost < resolution) & (cell_of[m:] < 0))
        density = np.full(n - m, np.inf)
        density[near] = _density_distances(game, m, m + near)
        _require_within(k, [m], (cost[:1], density[:1]), resolution)
        cell_of[m + near[density[near] < resolution]] = k
        representatives.append(m)
    cells = tuple(np.flatnonzero(cell_of == k) for k in range(len(representatives)))
    return Partition(resolution=resolution, cells=cells, representatives=representatives)


def check_partition(spec, partition):
    """Re-verify the partition invariants against a spec: disjoint cover of
    the grid and strict resolution conditions for every member, computing
    distances from each representative to its own cell's members only.
    Raises ValueError on any violation, a NaN distance included."""
    if partition.n_points != spec.n_points:
        raise ValueError(
            f"partition covers {partition.n_points} points, spec has {spec.n_points}"
        )
    game = spec.game
    for k, (cell, rep) in enumerate(zip(partition.cells, partition.representatives)):
        distances = (_cost_distances(game, rep, cell), _density_distances(game, rep, cell))
        _require_within(k, cell, distances, partition.resolution)


def surrogate_game(spec, partition):
    """Collapse each cell to its representative.

    Surrogate costs copy the representative rows; surrogate transitions put on
    each target cell the representative's kernel mass over that cell's
    members; the initial distribution aggregates over cells.  The partition
    is checked first (check_partition), the one check per discretization,
    which also guards partitions built by hand.  Raises ValueError with the
    validate_game report unless the surrogate passes it, as every game that
    load_game reads must (a density not integrating to 1 fails).
    """
    check_partition(spec, partition)
    game = spec.game
    reps = partition.representatives
    membership = np.zeros((game.n_states, partition.n_cells))
    membership[np.arange(game.n_states), partition.cell_of] = 1.0
    surrogate = replace(game, costs=game.costs[:, :, reps, :],
                        transitions=game.transitions[reps] @ membership,
                        initial=membership.T @ game.initial)
    report = validate_game(surrogate)
    if not report.ok:
        raise ValueError(f"surrogate game:\n{report}")
    return DiscretizedGame(
        game=surrogate,
        certified_error=error_bound(partition.resolution, game.discount, game.cost_bound),
    )


def grid_game(spec):
    """The spec itself as a finite game over grid points: the kernel is the
    density times the quadrature weight of the target point."""
    return spec.game


def surrogate_grid_game(spec, partition):
    """Surrogate data spread back over the full grid: every point carries its
    cell representative's costs and kernel row.  Strategies need not respect
    the partition here, which is what the uniform error bound quantifies over."""
    reps_of = partition.representatives[partition.cell_of]
    return replace(spec.game, costs=spec.game.costs[:, :, reps_of, :],
                   transitions=spec.game.transitions[reps_of])


def lift_strategy(partition, profile):
    """Spread a profile over cells back to the grid (constant on each cell)."""
    if profile.n_states != partition.n_cells:
        raise ValueError(
            f"profile has {profile.n_states} states, partition {partition.n_cells} cells"
        )
    return StationaryProfile(tuple(rows[partition.cell_of] for rows in profile.rows))


@dataclass(frozen=True)
class ApproximationReport:
    max_deviation: float
    certified_error: float

    @property
    def within_bound(self):
        return self.max_deviation <= self.certified_error + 1e-12


def verify_approximation_bound(spec, partition, strategies):
    """Measure the actual cost deviation between the grid game and the
    surrogate-data grid game over a strategy sample.

    Each entry of `strategies` is a StationaryProfile over grid points or a
    (heads, tail) pair of such profiles for a finite-head Markov plan.  The
    deviation is maximized over players, layers, and initial states and must
    stay within the certified error bound.
    """
    original = spec.game
    surrogate = surrogate_grid_game(spec, partition)
    deviations = []
    for entry in strategies:
        if isinstance(entry, StationaryProfile):
            a = evaluate_profile(original, entry)
            b = evaluate_profile(surrogate, entry)
        else:
            heads, tail = entry
            a = evaluate_markov_profile(original, heads, tail)
            b = evaluate_markov_profile(surrogate, heads, tail)
        deviations.append(float(np.max(np.abs(a.Jx - b.Jx))))
    return ApproximationReport(
        max_deviation=float(np.max(deviations, initial=0.0)),
        certified_error=error_bound(partition.resolution, original.discount, original.cost_bound),
    )

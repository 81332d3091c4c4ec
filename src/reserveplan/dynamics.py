"""Per-parcel multi-species competition dynamics with crowding.

Counts in every parcel evolve independently through T explicit fixed-size
update steps. For species i with per-parcel state N,

    dN_i = dt * (r_i * N_i  -  N_i * sum_j alpha[i, j] * N_j  -  beta_i * N_i * N_i)

computed for all species from the pre-step state (left to right, the sum in
index order), after which each count is clamped at zero. The interaction
matrix alpha has a zero diagonal; the crowding coefficients beta carry all
self-limitation, giving each species the single-species fixed point r_i / beta_i.

Each distinct starting column is stepped once and shared by every parcel that
starts there, so wide grids of mostly distinct columns gain only from the lean
step. A positive count clamped to zero (a step-size artefact: the continuous
model never reaches zero) or an overflow is refused, naming step and parcel.
``simulate`` returns the projected counts as a plain (species, n, n) float64
array, and ``round_counts`` turns that array into an integer ``CountsGrid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import InvalidDimensionError, as_numbers
from .landscape import CountsGrid

__all__ = ["LVParams", "default_params", "simulate", "round_counts"]

DEFAULT_BIRTH_RATE = 0.1
DEFAULT_COMPETITION = 0.0005
DEFAULT_CROWDING = 0.001
DEFAULT_DT = 0.01
DEFAULT_STEPS = 2000


@dataclass(frozen=True, eq=False)
class LVParams:
    """Birth rates, interaction matrix, crowding coefficients, and step schedule.

    ``r`` and ``beta`` have one entry per species; ``alpha[i, j]`` is the
    per-individual pressure of species j on species i and must be zero on the
    diagonal. ``dt`` is the step size in time units and ``T`` the number of
    steps to run.
    """

    r: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dt: float = DEFAULT_DT
    T: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        r = as_numbers(self.r, "r", shape=(None,))
        s = len(r)
        if s == 0:
            raise InvalidDimensionError("r must hold at least one species")
        beta = as_numbers(self.beta, "beta", shape=(s,))
        alpha = as_numbers(self.alpha, "alpha", shape=(s, s))
        if np.any(np.diag(alpha) != 0.0):
            raise ValueError("alpha must have a zero diagonal; crowding lives in beta")
        dt = float(as_numbers(self.dt, "dt", shape=()))
        if dt == 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "T", int(as_numbers(self.T, "T", integer=True, shape=())))

    @property
    def species_count(self) -> int:
        return int(self.r.shape[0])


def default_params(species_count: int) -> LVParams:
    """Uniform parameters for a given species count: equal rates, symmetric competition."""
    if species_count < 1:
        raise ValueError(f"species_count must be >= 1, got {species_count}")
    alpha = np.full((species_count, species_count), DEFAULT_COMPETITION)
    np.fill_diagonal(alpha, 0.0)
    return LVParams(
        r=np.full(species_count, DEFAULT_BIRTH_RATE),
        alpha=alpha,
        beta=np.full(species_count, DEFAULT_CROWDING),
    )


def _project(state: np.ndarray, params: LVParams, steps: int, check=None) -> np.ndarray:
    """Advance a (species, parcels) state by ``steps`` steps, each distinct column once.

    Distinct starting columns are stepped in place and scattered back. A given
    ``check(step, x)`` runs after every step; without one the steps run in one
    loop with no per-step call. The states are small, so per-call numpy cost
    dominates, and a call on same-shape contiguous operands costs about half
    one that broadcasts a column or a Python float: so ``r``, ``beta``, ``dt``,
    a zero, and ``alphas[j]`` (``alpha[:, j]``) are built once at the state's
    shape. Each step forms every ``alpha[i, j] * N_j`` in one broadcasting call
    and sums over j in index order into ``products[0]``, never by a numpy
    reduction (which sums pairwise on some shapes), so a column evolves alike
    alone or in a batch.
    """
    unique, inverse = np.unique(state, axis=1, return_inverse=True)
    x = np.ascontiguousarray(unique, dtype=np.float64)
    t1, t2, zero, dt = np.empty_like(x), np.empty_like(x), np.zeros_like(x), np.full_like(x, params.dt)
    r, beta, alphas = (np.repeat(v[..., np.newaxis], x.shape[1], axis=-1)
                       for v in (params.r, params.beta, params.alpha.T))
    products, rows = np.empty_like(alphas), x[:, np.newaxis]
    pressure, terms = products[0], list(products[1:])  # species 0's term, then the running sum
    stride, stops = (1, steps) if check else (steps, 1)
    for stop in range(1, stops + 1):
        for _ in range(stride):
            np.multiply(alphas, rows, products)
            for term in terms:
                np.add(pressure, term, pressure)
            np.multiply(r, x, t1)
            np.multiply(x, pressure, pressure)
            np.subtract(t1, pressure, t1)
            np.multiply(beta, x, t2)
            np.multiply(t2, x, t2)
            np.subtract(t1, t2, t1)
            np.multiply(dt, t1, t1)
            np.add(x, t1, x)
            np.maximum(zero, x, out=x)
        if check:
            check(stop, x)
    return x[:, inverse]


def simulate(observed: CountsGrid, params: LVParams) -> np.ndarray:
    """Project observed counts forward by T steps: a (species, n, n) float64 array.

    Parcels do not interact: the projection of a grid equals the projection of
    each parcel in isolation, reassembled. A count that leaves the float range
    or is clamped from positive to zero is refused, naming its step and parcel.
    """
    if observed.species_count != params.species_count:
        raise ValueError(
            f"grid has {observed.species_count} species but parameters cover "
            f"{params.species_count}"
        )
    initial = observed.matrix().astype(np.float64)
    # Overflow is refused below, naming its step, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        state = _project(initial, params, params.T)
        # A positive count reaches exactly zero only by the clamp, and then stays there.
        bad = ~np.isfinite(state) | ((state == 0.0) & (initial > 0.0))
        if bad.any():
            # Parcels evolve independently: re-running the first bad one alone finds its step.
            parcel = int(bad.any(axis=0).argmax())
            start = initial[:, [parcel]]
            def check(step: int, column: np.ndarray) -> None:
                if not np.isfinite(column).all():
                    raise ValueError(f"projected counts overflow at step {step} in parcel {parcel}")
                if np.any((column == 0.0) & (start > 0.0)):
                    raise ValueError(f"projected counts clamped to zero at step {step} in parcel {parcel}")
            _project(start, params, params.T, check)
    return state.reshape(-1, observed.n, observed.n)


def round_counts(projected: np.ndarray) -> CountsGrid:
    """Round a (species, n, n) array of projected counts half-up to the nearest integer."""
    return CountsGrid(n=projected.shape[-1], counts=np.floor(projected + 0.5))

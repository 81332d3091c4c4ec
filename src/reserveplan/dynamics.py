"""Per-parcel multi-species competition dynamics with crowding.

Counts in every parcel evolve independently through T explicit fixed-size
update steps. For species i with per-parcel state N,

    dN_i = dt * (r_i * N_i  -  N_i * sum_j alpha[i, j] * N_j  -  beta_i * N_i**2)

computed simultaneously for all species from the pre-step state, after which
each count is clamped at zero. The interaction matrix alpha has a zero
diagonal; self-limitation is carried entirely by the crowding coefficients
beta, giving each species the single-species fixed point r_i / beta_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import as_numbers
from .landscape import CountsGrid

__all__ = [
    "LVParams",
    "SimulatedGrid",
    "default_params",
    "lv_step",
    "simulate",
    "round_counts",
]

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


def default_params(
    species_count: int,
    *,
    r: float = DEFAULT_BIRTH_RATE,
    alpha: float = DEFAULT_COMPETITION,
    beta: float = DEFAULT_CROWDING,
    dt: float = DEFAULT_DT,
    T: int = DEFAULT_STEPS,
) -> LVParams:
    """Uniform parameters for a given species count: equal rates, symmetric competition."""
    if species_count < 1:
        raise ValueError(f"species_count must be >= 1, got {species_count}")
    a = np.full((species_count, species_count), alpha, dtype=np.float64)
    np.fill_diagonal(a, 0.0)
    return LVParams(
        r=np.full(species_count, r),
        alpha=a,
        beta=np.full(species_count, beta),
        dt=dt,
        T=T,
    )


@dataclass(frozen=True, eq=False)
class SimulatedGrid:
    """Real-valued projected counts on an n x n grid."""

    n: int
    values: np.ndarray  # shape (species, n, n), nonnegative floats

    def __post_init__(self) -> None:
        values = as_numbers(self.values, "projected values", shape=(None, self.n, self.n))
        object.__setattr__(self, "values", values)

    @property
    def species_count(self) -> int:
        return int(self.values.shape[0])

    def matrix(self) -> np.ndarray:
        """Values flattened to (species, parcels) with parcels in row-major order."""
        return self.values.reshape(self.species_count, -1)


def _step_columns(state: np.ndarray, params: LVParams) -> np.ndarray:
    """Advance a (species, parcels) state matrix by one step.

    The interaction sum accumulates species in a fixed order so that a column
    evolves identically whether simulated alone or alongside other parcels.
    """
    pressure = np.zeros_like(state)
    for j in range(state.shape[0]):
        pressure += params.alpha[:, j, np.newaxis] * state[j]
    delta = params.dt * (
        params.r[:, np.newaxis] * state
        - state * pressure
        - params.beta[:, np.newaxis] * state * state
    )
    return np.maximum(0.0, state + delta)


def lv_step(state, params: LVParams) -> np.ndarray:
    """One update step for the per-species counts of a single parcel."""
    vec = as_numbers(state, "state", shape=(params.species_count,))
    return _step_columns(vec[:, np.newaxis], params)[:, 0]


def simulate(observed: CountsGrid, params: LVParams) -> SimulatedGrid:
    """Project observed counts forward by running T steps in every parcel.

    Parcels do not interact: the projection of a grid equals the projection of
    each parcel in isolation, reassembled.
    """
    if observed.species_count != params.species_count:
        raise ValueError(
            f"grid has {observed.species_count} species but parameters cover "
            f"{params.species_count}"
        )
    state = observed.matrix().astype(np.float64)
    # An overflow is refused below, naming its step, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.T):
            state = _step_columns(state, params)
        if not np.isfinite(state).all():
            # Parcels evolve independently: re-running the first bad one alone finds its step.
            parcel = int(np.isfinite(state).all(axis=0).argmin())
            column = observed.matrix()[:, [parcel]].astype(np.float64)
            for step in range(1, params.T + 1):
                column = _step_columns(column, params)
                if not np.isfinite(column).all():
                    raise ValueError(f"projected counts overflow at step {step} in parcel {parcel}")
    values = state.reshape(observed.species_count, observed.n, observed.n)
    return SimulatedGrid(n=observed.n, values=values)


def round_counts(simulated: SimulatedGrid) -> CountsGrid:
    """Round projected counts half-up to the nearest integer."""
    return CountsGrid(n=simulated.n, counts=np.floor(simulated.values + 0.5))

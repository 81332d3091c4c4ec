"""Per-parcel multi-species competition dynamics with crowding.

Counts in every parcel evolve independently through T explicit fixed-size
update steps. For species i with per-parcel state N,

    dN_i = dt * (r_i * N_i  -  N_i * sum_j alpha[i, j] * N_j  -  beta_i * N_i * N_i)

computed for all species from the pre-step state (left to right, the sum in
index order), after which each count is clamped at zero. The interaction
matrix alpha has a zero diagonal; the crowding coefficients beta carry all
self-limitation, giving each species the single-species fixed point r_i / beta_i.

``simulate`` projects a ``CountsGrid`` to a plain (species, n, n) float64
array, and ``round_counts`` turns that array into an integer ``CountsGrid``.
``simulate`` states the refusals and the column memo; ``_project`` the step kernel.
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
# Steps x species x distinct columns a projection may run: 30x a 60,000-step
# projection of 5 species on a 100x100 grid (3e9), and about 20 minutes at the
# ~10 ns per cell-step of a wide state.
MAX_CELL_STEPS = 10**11
# Bytes the column memo may hold: ~80,000 five-species columns of 208 bytes, the
# distinct columns of eight 100x100 grids.
MEMO_BYTES = 16 * 2**20
# What the memo holds, at worst, by sys.getsizeof: a stored column (its start and its
# projection as bytes objects, 33 + 8 x species each, and a dict slot of up to ~60
# bytes just after the dict grows) costs _COLUMN_BYTES + 16 x species, and a parameter
# set (its key tuple, dt, T, column dict and slot, up to ~620 bytes with the memo's
# own dict) _KEY_BYTES + the bytes of r, alpha and beta.
_COLUMN_BYTES = 128
_KEY_BYTES = 640


class _ColumnMemo:
    """Projected column bytes by parameter values and starting column bytes."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.columns: dict[tuple, dict[bytes, bytes]] = {}
        self.bytes = 0

    def store(self, key: tuple, new: dict[bytes, bytes], species: int) -> None:
        """Add the ``new`` columns under ``key``, emptying the memo first if they would not fit."""
        cost = len(new) * (_COLUMN_BYTES + 16 * species)
        fresh = _KEY_BYTES + sum(map(len, key[:3]))
        if cost + fresh > MEMO_BYTES:
            return  # too many to hold even alone: keep what is held
        if self.bytes + cost + (key not in self.columns) * fresh > MEMO_BYTES:
            self.clear()
        self.bytes += cost + (key not in self.columns) * fresh
        self.columns.setdefault(key, {}).update(new)


_memo = _ColumnMemo()


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
    """Advance a (species, columns) state by ``steps`` steps: a (species, columns) array.

    Every column given is stepped; ``simulate`` passes each distinct one once. A given
    ``check(step, x)`` runs after every step; without one the steps run in one
    loop with no per-step call. Per-call numpy cost dominates on these small
    states, and a broadcast, strided or many-axis operand costs more than a
    contiguous 1-D one, so every operand is built once at the state's size and
    each step runs on flat views. The state lives in ``xx = [x; x]``, recopied
    once a step, beside scratch ``q = [r*x | beta*x | products]``. A step forms
    every ``alpha[i, j] * N_j`` in one call and sums over j in index order into
    the pressure ``products[0]`` (a numpy reduction sums pairwise on some shapes,
    so a column would not evolve alike alone and in a batch). With more than two
    species the N_j operand is ``tile``, each species' row repeated once per
    species, refreshed from x once a step. With two species
    ``[alpha[0, 1], alpha[1, 0]] * xx[1:3]`` is the whole pressure, and with one
    ``alpha[0, 0] * N_0``: a dropped ``0 * N_i`` could change only the sign of a
    zero update, and ``N + (-0.0)`` is ``N``. ``[r; beta] * xx`` then forms r*x
    and beta*x, and ``q[S:3S] * xx`` beta*x*x and pressure*x (equal to
    x*pressure), so counts are bit-identical and one that overflows turns
    non-finite at the same step.
    """
    s, width = state.shape
    cells = s * width
    xx = np.ascontiguousarray(np.concatenate([state, state]), dtype=np.float64).reshape(-1)
    x, copy = xx[:cells], xx[cells:]
    column = x.reshape(s, 1, width)
    tile = np.repeat(column, s, axis=1) if s > 2 else None
    if tile is None:  # pressure[i] = alpha[i, 1 - i] * N_(1 - i), and xx[1:3] is [N_1; N_0]
        rates, rows = params.alpha[np.arange(s), np.arange(1, s + 1) % s], xx[width : width + cells]
    else:  # alpha.T[j] = alpha[:, j], times N_j
        rates, rows = params.alpha.T, tile.reshape(-1)
    rb, dt, zero, alphas = (np.repeat(v.reshape(-1, 1), width, axis=1).reshape(-1) for v in (
        np.concatenate([params.r, params.beta]), np.full(s, params.dt), np.zeros(s), rates))
    q = np.empty(2 * cells + alphas.size)
    rx, bxx, linear, quadratic = q[:cells], q[cells : 2 * cells], q[: 2 * cells], q[cells : 3 * cells]
    products = q[2 * cells :]
    pressure, terms = products[:cells], [products[j : j + cells] for j in range(cells, products.size, cells)]
    multiply, add, subtract, maximum = np.multiply, np.add, np.subtract, np.maximum
    stride, stops = (1, steps) if check else (steps, 1)
    for stop in range(1, stops + 1):
        for _ in range(stride):
            multiply(alphas, rows, products)
            for term in terms:
                add(pressure, term, pressure)
            multiply(rb, xx, linear)
            multiply(quadratic, xx, quadratic)
            subtract(rx, pressure, rx)
            subtract(rx, bxx, rx)
            multiply(dt, rx, rx)
            add(x, rx, x)
            maximum(zero, x, out=x)
            copy[...] = x
            if tile is not None:
                tile[...] = column
        if check:
            check(stop, x.reshape(s, width))
    return x.reshape(s, width)


def _columns(matrix: np.ndarray) -> list[bytes]:
    """The columns of a (species, k) float64 array, as one bytes object each."""
    return np.ascontiguousarray(matrix.T).view(f"V{8 * len(matrix)}").ravel().tolist()


def simulate(observed: CountsGrid, params: LVParams) -> np.ndarray:
    """Project observed counts forward by T steps: a (species, n, n) float64 array.

    Parcels do not interact: the projection of a grid equals the projection of
    each parcel in isolation, reassembled. A count that leaves the float range
    or is clamped from positive to zero is refused, naming its step and parcel
    (or the parcel alone, should its re-run not repeat the fault).
    A schedule past ``MAX_CELL_STEPS`` (T x species x distinct columns) is
    refused before the first step, naming T, whatever the memo holds.

    Distinct starting columns already projected under equal parameter values
    (``r``, ``alpha``, ``beta``, ``dt`` and ``T``, compared bit for bit) are
    read from the module's memo; only the others are stepped, by ``_project``.
    That is exact: each step is elementwise per column, so a column's bits do
    not depend on the batch it is stepped in. New columns are stored once the
    whole call has passed the overflow and clamp check; if they would not fit
    within ``MEMO_BYTES`` beside what the memo holds, it is emptied first, and
    columns too many to fit alone are not stored. The result is always a fresh
    array.
    """
    if observed.species_count != params.species_count:
        raise ValueError(
            f"grid has {observed.species_count} species but parameters cover "
            f"{params.species_count}"
        )
    initial = observed.matrix().astype(np.float64)
    s = initial.shape[0]
    # Dedup by each column's bytes: counts are integers, so equal bytes mean equal values.
    parcels, index = _columns(initial), {}
    inverse = np.fromiter((index.setdefault(c, len(index)) for c in parcels), np.intp, len(parcels))
    cell_steps = params.T * s * len(index)
    if cell_steps > MAX_CELL_STEPS:
        raise ValueError(
            f"T={params.T} steps on {s} species x {len(index)} distinct columns "
            f"is {cell_steps:,} cell-steps, past the cap of {MAX_CELL_STEPS:,}"
        )
    key = (params.r.tobytes(), params.alpha.tobytes(), params.beta.tobytes(), params.dt, params.T)
    starts, known = list(index), _memo.columns.get(key, {})
    ends = [known.get(start) for start in starts]
    new = [i for i, end in enumerate(ends) if end is None]
    # Overflow is refused below, naming its step, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        if new:
            columns = np.frombuffer(b"".join([starts[i] for i in new]), np.float64).reshape(-1, s)
            for i, end in zip(new, _columns(_project(columns.T, params, params.T))):
                ends[i] = end
        state = np.frombuffer(b"".join(ends), np.float64).reshape(-1, s).T.take(inverse, axis=1)
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
            raise ValueError(f"projected counts overflow or clamp to zero in parcel {parcel}")
    if new:
        _memo.store(key, {starts[i]: ends[i] for i in new}, s)
    return state.reshape(-1, observed.n, observed.n)


def round_counts(projected: np.ndarray) -> CountsGrid:
    """Round a (species, n, n) array of projected counts half-up to the nearest integer."""
    return CountsGrid(np.floor(projected + 0.5))

"""Core domain types: beliefs, model matrices, instances, and validation.

All public state/observation/project indices are 1-based, matching the
usual statement of the scheduling model; internal numpy arrays are
0-based.  Every type is immutable after construction and safe to share
across threads.

The module also owns the key that decides when two beliefs or profiles
are the same: entries rounded to ``KEY_DECIMALS`` with -0.0 turned into
0.0, read as bytes (``belief_key``) or as uint64 words (``key_bits``),
and the integer checks that every module applies to its counts, slots,
indices and seeds (``check_integer``, ``check_seed``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError, InvalidBeliefError

#: Hard tolerance on simplex membership after construction.
SUM_TOL = 1e-12
#: Constructor renormalizes when the sum drifts by at most this much.
RENORM_TOL = 1e-9
#: Negative entries at least this value are clamped to zero.
CLAMP_TOL = -1e-12
#: Beliefs are rounded to this many decimals for hashing/memoization.
KEY_DECIMALS = 12


def check_integer(name: str, value) -> None:
    """Reject a count, slot, horizon, seed, project, action or observation
    that is neither a Python nor a numpy integer with a ``TypeError``
    naming the argument.  A bool is rejected too, though
    ``isinstance(True, int)`` holds: True would run as 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Reject a seed that is not an integer (``TypeError``) or is negative
    (``ValueError``), each naming ``seed``; numpy's own messages name
    neither, and would take True as 1."""
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _rounded(probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.round(probs, KEY_DECIMALS, out=out)
    # Adding 0.0 turns -0.0 into 0.0, so the two share a key.
    out += 0.0
    return out


def belief_key(probs: np.ndarray) -> bytes:
    """Hashable key for a belief, stable under sub-1e-12 float noise."""
    return _rounded(probs).tobytes()


def key_bits(rows: np.ndarray) -> np.ndarray:
    """The key bits of a C-contiguous float array: ``rows`` rounded in
    place as ``belief_key`` rounds it, viewed as uint64."""
    return _rounded(rows, out=rows).view(np.uint64)


def valid_belief_rows(rows) -> np.ndarray:
    """Every belief along the last axis of ``rows``, checked, clamped and
    renormalised in one pass over the array; ``BeliefVector`` validates
    its one belief here too.

    Entries must be finite and at least ``CLAMP_TOL``; they are clipped
    at 0, and each belief whose sum is within ``RENORM_TOL`` of 1 is
    divided by it (a no-op where the sum is exactly 1).  Returns a new
    array.  A failing check raises ``InvalidBeliefError`` for the first
    belief that fails it.
    """
    p = np.asarray(rows, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise InvalidBeliefError(f"belief must be a nonempty vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidBeliefError("belief has non-finite entries")
    below = p < CLAMP_TOL
    if below.any():
        row = p.reshape(-1, p.shape[-1])[np.flatnonzero(below)[0] // p.shape[-1]]
        raise InvalidBeliefError(f"belief entry {row.min()} below clamp tolerance")
    p = np.clip(p, 0.0, None)
    s = p.sum(axis=-1)
    drift = np.abs(s - 1.0) > RENORM_TOL
    if drift.any():
        raise InvalidBeliefError(f"belief sums to {s[drift][0]}, drift exceeds {RENORM_TOL}")
    p /= s[..., None]
    return p


@dataclass(frozen=True)
class BeliefVector:
    """A point on the (X-1)-simplex: the information state of one project."""

    probs: np.ndarray

    def __init__(self, probs: Sequence[float]):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidBeliefError(f"belief must be a nonempty vector, got shape {p.shape}")
        object.__setattr__(self, "probs", _frozen(valid_belief_rows(p)))

    @property
    def dim(self) -> int:
        return self.probs.size

    def key(self) -> bytes:
        return belief_key(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BeliefVector):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"BeliefVector({self.probs.tolist()})"


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix; row i is the transition law out of state i."""

    rows: np.ndarray

    def __init__(self, rows: Sequence[Sequence[float]]):
        a = np.asarray(rows, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"transition matrix must be square, got {a.shape}")
        object.__setattr__(self, "rows", _frozen(a))

    @property
    def n_states(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class ObservationMatrix:
    """Row i is the observation distribution when the hidden state is i."""

    rows: np.ndarray

    def __init__(self, rows: Sequence[Sequence[float]]):
        b = np.asarray(rows, dtype=float)
        if b.ndim != 2:
            raise DimensionMismatchError(f"observation matrix must be 2-d, got {b.shape}")
        object.__setattr__(self, "rows", _frozen(b))

    @property
    def n_states(self) -> int:
        return self.rows.shape[0]

    @property
    def n_obs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class RewardVector:
    """Per-state instantaneous rewards."""

    values: np.ndarray

    def __init__(self, values: Sequence[float]):
        r = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise DimensionMismatchError(f"reward must be a nonempty vector, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("reward has non-finite entries")
        object.__setattr__(self, "values", _frozen(r))


#: The JSON type of each field of an instance document.
_JSON_FIELDS = {
    "n_projects": int, "n_states": int, "n_obs": int, "beta": (int, float),
    "A": list, "B": list, "R": list, "x0": list,
}
_JSON_TYPE_NAMES = {int: "an integer", (int, float): "a number", list: "an array"}


@dataclass(frozen=True)
class ModelInstance:
    """Full problem data for N homogeneous projects sharing one (A, B) pair."""

    n_projects: int
    n_states: int
    n_obs: int
    A: TransitionMatrix
    B: ObservationMatrix
    R: RewardVector
    beta: float
    initial_beliefs: tuple[BeliefVector, ...]

    def __init__(self, n_projects, n_states, n_obs, A, B, R, beta, initial_beliefs):
        """A count that is not an integer (``check_integer``) and a
        ``beta`` that is a bool or not a real number raise ``TypeError``
        naming the field: ``int`` and ``float`` would take 2.9 as 2 and
        True or '0.5' as a number."""
        for name, count in (("n_projects", n_projects), ("n_states", n_states), ("n_obs", n_obs)):
            check_integer(name, count)
            object.__setattr__(self, name, int(count))
        if isinstance(beta, (bool, np.bool_)) or not isinstance(beta, numbers.Real):
            raise TypeError(f"beta must be a real number, got {beta!r}")
        object.__setattr__(self, "A", A if isinstance(A, TransitionMatrix) else TransitionMatrix(A))
        object.__setattr__(self, "B", B if isinstance(B, ObservationMatrix) else ObservationMatrix(B))
        object.__setattr__(self, "R", R if isinstance(R, RewardVector) else RewardVector(R))
        object.__setattr__(self, "beta", float(beta))
        beliefs = tuple(
            x if isinstance(x, BeliefVector) else BeliefVector(x) for x in initial_beliefs
        )
        object.__setattr__(self, "initial_beliefs", beliefs)

    def to_json_dict(self) -> dict:
        return {
            "n_projects": self.n_projects,
            "n_states": self.n_states,
            "n_obs": self.n_obs,
            "beta": self.beta,
            "A": self.A.rows.tolist(),
            "B": self.B.rows.tolist(),
            "R": self.R.values.tolist(),
            "x0": [x.probs.tolist() for x in self.initial_beliefs],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelInstance":
        """The instance of a ``to_json_dict`` document; a ``ValueError``
        if ``doc`` is not a dict, lacks a field or has one of the wrong
        JSON type."""
        if not isinstance(doc, dict):
            raise ValueError(f"instance document must be an object, not {type(doc).__name__}")
        for key, kind in _JSON_FIELDS.items():
            if key not in doc:
                raise ValueError(f"instance document missing key {key!r}")
            # JSON true and false load as bool, a subclass of int.
            if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
                raise ValueError(
                    f"instance field {key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                    f"not {type(doc[key]).__name__}"
                )
        try:
            return cls(
                n_projects=doc["n_projects"],
                n_states=doc["n_states"],
                n_obs=doc["n_obs"],
                A=doc["A"],
                B=doc["B"],
                R=doc["R"],
                beta=doc["beta"],
                initial_beliefs=doc["x0"],
            )
        except TypeError as e:
            # An array holds an entry that is neither a number nor an array.
            raise ValueError(f"instance array entry of the wrong type: {e}") from e

    @classmethod
    def from_json(cls, text: str) -> "ModelInstance":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class ValidationReport:
    """Structural problems found in a ModelInstance; empty means well-formed."""

    problems: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_instance(inst: ModelInstance) -> ValidationReport:
    """Check every structural invariant; returns one entry per violation."""
    problems: list[str] = []
    X, Y, N = inst.n_states, inst.n_obs, inst.n_projects
    if N < 1:
        problems.append(f"n_projects must be positive, got {N}")
    if X < 1:
        problems.append(f"n_states must be positive, got {X}")
    if Y < 1:
        problems.append(f"n_obs must be positive, got {Y}")

    for name, M, shape, tol in (
        ("A", inst.A.rows, (X, X), RENORM_TOL),
        ("B", inst.B.rows, (X, Y), SUM_TOL),
    ):
        if M.shape != shape:
            problems.append(f"{name} has shape {M.shape}, expected {shape}")
            continue
        for i, row in enumerate(M, start=1):
            # Every comparison with NaN is false, so no later check sees one.
            if not np.isfinite(row).all():
                problems.append(f"{name} row {i} has a non-finite entry")
                continue
            if row.min() < 0:
                problems.append(f"{name} row {i} has a negative entry")
            if abs(row.sum() - 1.0) > tol:
                problems.append(f"{name} row {i} not stochastic (sums to {row.sum()!r})")

    R = inst.R.values
    if R.size != X:
        problems.append(f"R has {R.size} entries, expected {X}")
    elif np.any(np.diff(R) <= 0):
        problems.append("R not strictly increasing in state index")

    if not 0.0 <= inst.beta < 1.0:
        problems.append(f"beta out of range [0, 1): {inst.beta!r}")

    if len(inst.initial_beliefs) != N:
        problems.append(
            f"{len(inst.initial_beliefs)} initial beliefs, expected {N}"
        )
    for n, x in enumerate(inst.initial_beliefs, start=1):
        if x.dim != X:
            problems.append(f"initial belief {n} has dim {x.dim}, expected {X}")

    return ValidationReport(tuple(problems))

"""Linearized network model.

The model is per unit: line data are per-unit and bus 0, the point of
common coupling (PCC), is held at 1 pu.  Buses are indexed 0..N.  Lines
carry a series admittance and an optional per-end shunt admittance (pi
model).  A model keeps the grounded reduced impedance
``Z_red = inv(Y[1:, 1:])`` of the bus admittance matrix, whose real part
supplies the M/N/Q blocks used by the voltage, loss and intake formulas.
:func:`compute_sensitivity` forms, for checks, the (N+1)x(N+1) block X of
the inverse of the bordered system [[Y, 1], [1^T, 0]]; for a zero-shunt
network Y @ X = I - 11^T/(N+1) and X @ 1 = 0.  On slack-balanced injection
vectors the two matrices induce the same quadratic form; the grounded one
keeps the PCC pinned at 1 pu and the loss physical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, ModelError

__all__ = [
    "Line",
    "GridModel",
    "SensitivityBlocks",
    "build_admittance",
    "compute_sensitivity",
    "grounded_impedance",
    "decompose_blocks",
    "matvec",
    "row_dot",
    "bilinear",
    "voltage_approx",
    "power_loss",
    "full_power_loss",
    "grid_intake",
    "radial_line_flows",
    "load_network_csv",
]


@dataclass
class Line:
    """One pi-model line: series admittance plus a per-end shunt admittance."""

    from_bus: int
    to_bus: int
    admittance: complex
    shunt_admittance: complex = 0.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ModelError(f"line endpoints coincide: bus {self.from_bus}")
        if self.from_bus < 0 or self.to_bus < 0:
            raise ModelError("negative bus index")
        if self.admittance == 0:
            raise ModelError(
                f"zero series admittance on line {self.from_bus}-{self.to_bus}"
            )

    @classmethod
    def from_impedance(cls, from_bus, to_bus, r, x, b_shunt=0.0):
        return cls(from_bus, to_bus, 1.0 / complex(r, x), complex(0.0, b_shunt))


def build_admittance(lines, n_buses):
    """Assemble the bus admittance matrix.

    Standard convention: off-diagonal Y[n, m] = -y_nm, diagonal
    Y[n, n] = sum over incident lines of (y_nm + shunt_nm).  Parallel lines
    between the same pair merge by admittance addition.  Raises ModelError
    if the line graph does not connect all ``n_buses`` buses.
    """
    y = np.zeros((n_buses, n_buses), dtype=complex)
    for line in lines:
        a, b = line.from_bus, line.to_bus
        if a >= n_buses or b >= n_buses:
            raise ModelError(f"line {a}-{b} references bus >= {n_buses}")
        y[a, b] -= line.admittance
        y[b, a] -= line.admittance
        y[a, a] += line.admittance + line.shunt_admittance
        y[b, b] += line.admittance + line.shunt_admittance
    _check_connected(lines, n_buses)
    return y


def _check_connected(lines, n_buses):
    adj = [[] for _ in range(n_buses)]
    for line in lines:
        adj[line.from_bus].append(line.to_bus)
        adj[line.to_bus].append(line.from_bus)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n_buses:
        missing = sorted(set(range(n_buses)) - seen)
        raise ModelError(f"network is disconnected; unreachable buses {missing}")


def compute_sensitivity(Y):
    """Solve the bordered system for the full sensitivity matrix.

    Returns the (N+1)x(N+1) upper-left block X of inv([[Y, 1], [1^T, 0]]).
    Raises ModelError if the bordered matrix is singular (disconnected
    network).
    """
    n = Y.shape[0]
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = Y
    bordered[:n, n] = 1.0
    bordered[n, :n] = 1.0
    rhs = np.zeros((n + 1, n), dtype=complex)
    rhs[:n, :] = np.eye(n)
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"singular bordered system: {exc}") from exc
    return sol[:n, :]


def grounded_impedance(Y):
    """Invert the admittance matrix with the PCC row/column deleted.

    The result is the NxN impedance seen from the non-PCC buses with bus 0
    held fixed; its real part carries the loss and voltage sensitivities.
    """
    try:
        return np.linalg.inv(Y[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"singular grounded system: {exc}") from exc


def decompose_blocks(X, gen_buses, load_buses):
    """Slice a non-PCC sensitivity matrix into the M / N / Q blocks.

    ``X`` is indexed by buses 1..N (row 0 of ``X`` is bus 1).  ``gen_buses``
    and ``load_buses`` must partition {1..N}.
    """
    n = X.shape[0]
    gen = np.asarray(sorted(gen_buses), dtype=int)
    load = np.asarray(sorted(load_buses), dtype=int)
    both = set(gen.tolist()) & set(load.tolist())
    if both:
        raise ModelError(f"buses in both partitions: {sorted(both)}")
    union = set(gen.tolist()) | set(load.tolist())
    if union != set(range(1, n + 1)):
        raise ModelError("generation and load buses must partition 1..N")
    gi = gen - 1
    li = load - 1
    M = X[np.ix_(gi, gi)]
    Nblk = X[np.ix_(gi, li)]
    Q = X[np.ix_(li, li)]
    return M, Nblk, Q


# Row stacks.  An (R, n) stack of vectors goes through the products below
# as R matrix-vector (or vector-vector) products, one per row, never as
# one matrix product: each row then rounds exactly as that vector alone
# does, so a stacked computation equals its rows computed one at a time,
# bit for bit.  A single vector takes the plain product, which numpy runs
# through the same matrix-vector (or dot) kernel as a row of the column
# form, at less overhead.


def matvec(M, x):
    """``M @ x`` for a vector ``x``, or for every row of a stack of them."""
    if x.ndim == 1:
        return M @ x
    return (M @ x[..., None])[..., 0]


def row_dot(x, y):
    """``x . y`` for vectors, or row by row for stacks."""
    if x.ndim == 1 and y.ndim == 1:
        return x @ y
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def bilinear(x, M, y):
    """``x' M y`` for vectors, or row by row for stacks."""
    return ((x[..., None, :] @ M) @ y[..., None])[..., 0, 0]


def voltage_approx(X, p):
    """First-order voltage magnitudes in per unit: 1 + Re(X) @ p.

    Pure formula over whatever matrix/injection pair is supplied; callers
    choose full or reduced sensitivities.  Linear in ``p``.
    """
    p = np.asarray(p, dtype=float)
    return 1.0 + np.real(X) @ p


def power_loss(M, Nblk, Q, p_g, p_c):
    """Quadratic line-loss estimate from the block form, for one slot or
    each row of stacks of slots.

    loss = p_g' M p_g - 2 p_g' N p_c + p_c' Q p_c, equal to the full
    quadratic form over the reduced matrix with p = [p_g; -p_c].
    """
    p_g = np.asarray(p_g, dtype=float)
    p_c = np.asarray(p_c, dtype=float)
    return (bilinear(p_g, M, p_g) - 2.0 * bilinear(p_g, Nblk, p_c)
            + bilinear(p_c, Q, p_c))


def full_power_loss(X, p):
    """Loss from the full quadratic form, loss = p' Re(X) p.

    The reactive term q' Im(X) q is absent: the operating model sets q = 0
    everywhere.
    """
    p = np.asarray(p, dtype=float)
    return p @ np.real(X) @ p


def grid_intake(p_g, p_c, loss):
    """Power drawn at the PCC: consumption minus generation plus losses,
    for one slot or each row of stacks of slots."""
    return np.sum(p_c, axis=-1) - np.sum(p_g, axis=-1) + loss


def radial_line_flows(tree_edges, injections):
    """Flows on a tree rooted at bus 0.

    The flow on edge (parent, child) is minus the net injection of the
    subtree hanging under the child, so it is positive when power moves
    from the root toward the leaves.  Edges may be listed in either
    orientation; the returned flows follow the input edge order with the
    sign fixed to the root-to-leaf direction.  Raises ModelError on cycles
    or disconnected edge sets.
    """
    injections = np.asarray(injections, dtype=float)
    n = injections.shape[0]
    if len(tree_edges) != n - 1:
        raise ModelError(
            f"{len(tree_edges)} edges cannot form a tree on {n} buses"
        )
    adj = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(tree_edges):
        if not (0 <= a < n and 0 <= b < n):
            raise ModelError(f"edge ({a}, {b}) references an unknown bus")
        adj[a].append((b, idx))
        adj[b].append((a, idx))

    parent = np.full(n, -1, dtype=int)
    order = [0]
    seen = {0}
    for node in order:
        for nxt, _ in adj[node]:
            if nxt in seen:
                if nxt != parent[node]:
                    raise ModelError("cycle detected in line graph")
                continue
            seen.add(nxt)
            parent[nxt] = node
            order.append(nxt)
    if len(seen) != n:
        raise ModelError("edge set does not reach every bus")

    subtree = injections.copy()
    for node in reversed(order[1:]):
        subtree[parent[node]] += subtree[node]

    flows = np.zeros(len(tree_edges))
    for idx, (a, b) in enumerate(tree_edges):
        child = b if parent[b] == a else a
        flows[idx] = -subtree[child]
    return flows


@dataclass
class SensitivityBlocks:
    """Cached sensitivities for one topology.

    ``Z_red`` is the grounded reduced impedance over buses 1..N; M, N, Q
    are its real-part slices by generation/load bus sets and tile it
    exactly.  ``compute_sensitivity(Y)`` forms the bordered-system block.
    """

    Z_red: np.ndarray
    M: np.ndarray
    N: np.ndarray
    Q: np.ndarray
    gen_buses: tuple
    load_buses: tuple

    @property
    def X(self):
        """Real non-PCC sensitivity used by the block formulas."""
        return np.real(self.Z_red)

    def reassemble(self):
        """Scatter M/N/Q back into an NxN matrix (testing aid)."""
        n = self.Z_red.shape[0]
        out = np.zeros((n, n))
        gi = np.asarray(self.gen_buses, dtype=int) - 1
        li = np.asarray(self.load_buses, dtype=int) - 1
        out[np.ix_(gi, gi)] = self.M
        out[np.ix_(gi, li)] = self.N
        out[np.ix_(li, gi)] = self.N.T
        out[np.ix_(li, li)] = self.Q
        return out


@dataclass
class GridModel:
    """Immutable network model; grounded sensitivities computed on build."""

    n_buses: int
    lines: list
    gen_buses: tuple
    load_buses: tuple
    Y: np.ndarray = field(repr=False)
    blocks: SensitivityBlocks = field(repr=False)

    @classmethod
    def build(cls, lines, n_buses, gen_buses, load_buses):
        gen = tuple(sorted(int(b) for b in gen_buses))
        load = tuple(sorted(int(b) for b in load_buses))
        if 0 in gen or 0 in load:
            raise ModelError("bus 0 is the PCC and belongs to neither set")
        Y = build_admittance(lines, n_buses)
        Z_red = grounded_impedance(Y)
        # The inverse of a symmetric matrix is symmetric; scrub the
        # solver's float-level asymmetry so block slices tile exactly.
        Z_red = 0.5 * (Z_red + Z_red.T)
        M, Nblk, Q = decompose_blocks(np.real(Z_red), gen, load)
        blocks = SensitivityBlocks(Z_red, M, Nblk, Q, gen, load)
        # Convexity of every downstream objective rides on Q being PSD.
        if len(load) and np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-12:
            raise ModelError("Q block is not positive semidefinite")
        return cls(n_buses, list(lines), gen, load, Y, blocks)

    def bus_voltages(self, p_g, p_c, p_fixed=None):
        """All-bus voltage magnitudes with the PCC pinned at 1 pu."""
        p = np.zeros(self.n_buses - 1)
        p[np.asarray(self.gen_buses, dtype=int) - 1] = p_g
        load = np.asarray(self.load_buses, dtype=int) - 1
        cons = np.asarray(p_c, dtype=float)
        if p_fixed is not None:
            cons = cons + p_fixed
        p[load] = -cons
        out = np.empty(self.n_buses)
        out[0] = 1.0
        out[1:] = voltage_approx(self.blocks.X, p)
        return out


def load_network_csv(path):
    """Read a line list from CSV with header ``from,to,r,x,b_shunt``.

    Values are per-unit floats; bus 0 is reserved for the PCC.  Rejects
    NaN entries and negative resistance.  Returns (lines, n_buses).
    """
    lines = []
    max_bus = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"from", "to", "r", "x", "b_shunt"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestionError(
                f"{path}: header must contain {sorted(required)}"
            )
        for row_no, row in enumerate(reader, start=2):
            try:
                a = int(row["from"])
                b = int(row["to"])
                r = float(row["r"])
                x = float(row["x"])
                sh = float(row["b_shunt"])
            except (TypeError, ValueError) as exc:
                raise IngestionError(f"{path}:{row_no}: bad value ({exc})") from exc
            if any(math.isnan(v) for v in (r, x, sh)):
                raise IngestionError(f"{path}:{row_no}: NaN entry")
            if r < 0:
                raise IngestionError(f"{path}:{row_no}: negative resistance")
            lines.append(Line.from_impedance(a, b, r, x, sh))
            max_bus = max(max_bus, a, b)
    if not lines:
        raise IngestionError(f"{path}: no line records")
    return lines, max_bus + 1

"""Seeded workloads for the qrsim benchmark, and the checks on their outputs.

Each workload builds a pool of operations from a numpy generator: the argv
for one ``qrsim.cli.main`` call plus what its output must satisfy.  Scenario
files are written into a directory the caller owns, so the program receives
only generated files and argv.  Operation kinds follow a fixed cycle whose
length divides ``TRACE_OPS`` and ``POOL_OPS``: every pool, and its first
``TRACE_OPS`` operations, hold the same share of each kind whatever the seed.
That keeps latency quantiles inside one kind's cluster and makes
per-operation counts of a traced pass repeat exactly.

Expected values are computed here with plain numpy on the generated inputs,
never with qrsim's own helpers.  Tolerances are those of the acceptance gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TRACE_OPS = 40
POOL_OPS = 120  # more distinct queries per run, so a run depends less on its seed
SCENARIO_FILES = 8

INV_SQRT2 = 0.7071067811865476
E_ATOL = 1e-10        # closed-form correlators
S_ATOL = 1e-9         # CHSH values
TABLE_ATOL = 1e-9     # table sums and marginals
REBUILD_ATOL = 1e-10  # Schmidt reconstruction


class CheckFailed(Exception):
    """An output of the program disagrees with what its inputs imply."""


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    expect: dict = field(repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator, Path], list]
    check: Callable[[Op, str], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _label(qubits) -> str:
    return "+".join(f"q{i}" for i in sorted(qubits))


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def _write_scenarios(rng: np.random.Generator, directory: Path, n: int) -> list:
    """Write SCENARIO_FILES amplitude-list scenarios; return (path, amplitudes)."""
    out = []
    for k in range(SCENARIO_FILES):
        psi = _random_state(rng, n)
        data = {
            "subsystems": [{"label": f"q{i}", "dim": 2} for i in range(n)],
            "state": [[float(z.real), float(z.imag)] for z in psi],
        }
        path = directory / f"q{n}-{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out.append((str(path), psi))
    return out


def _spectrum(psi: np.ndarray, n: int, qubits) -> np.ndarray:
    """Descending eigenvalues of the reduction of ``psi`` onto ``qubits``."""
    keep = sorted(qubits)
    t = np.moveaxis(psi.reshape((2,) * n), keep, range(len(keep)))
    m = t.reshape(2 ** len(keep), -1)
    return np.linalg.eigvalsh(m @ m.conj().T)[::-1]


# ---------------------------------------------------------------------------
# bell-point: `bell --model all` at one seeded setting

BELL_CYCLE = ("degenerate", "general", "general", "general")


def _e_quantum(a: float, b: float, t1: float, t2: float) -> float:
    return -math.cos(t1) * math.cos(t2) - 2.0 * a * b * math.sin(t1) * math.sin(t2)


def _e_hidden(t1: float, t2: float) -> float:
    return -math.cos(t1) * math.cos(t2)


def _chsh_at_point(e, t1: float, t2: float) -> float:
    return e(0.0, 0.0) - e(0.0, t2) + e(t1, 0.0) + e(t1, t2)


def build_bell(rng: np.random.Generator, directory: Path) -> list:
    ops = []
    for i in range(POOL_OPS):
        kind = BELL_CYCLE[i % len(BELL_CYCLE)]
        if kind == "degenerate":
            a = b = INV_SQRT2
        else:
            phi = float(rng.uniform(0.2, 1.37))
            a, b = math.cos(phi), math.sin(phi)
        # away from 0 so the four CHSH settings are distinct, away from 2*pi
        # so no outcome probability is negligible
        t1, t2 = (float(t) for t in rng.uniform(0.1, 2.0 * math.pi - 0.1, size=2))
        argv = (
            "bell", "--a", repr(a), "--b", repr(b),
            "--theta1", repr(t1), "--theta2", repr(t2), "--model", "all",
        )
        ops.append(Op(kind, argv, {"a": a, "b": b, "theta1": t1, "theta2": t2}))
    return ops


def check_bell(op: Op, stdout: str) -> None:
    out = json.loads(stdout)
    a, b = op.expect["a"], op.expect["b"]
    t1, t2 = op.expect["theta1"], op.expect["theta2"]

    def e_q(x, y):
        return _e_quantum(a, b, x, y)

    def e_h(x, y):
        return _e_hidden(x, y)

    for key, got, want, atol in (
        ("E_quantum", out["E_quantum"], e_q(t1, t2), E_ATOL),
        ("E_hidden", out["E_hidden"], e_h(t1, t2), E_ATOL),
        ("S_quantum", out["S_quantum"], _chsh_at_point(e_q, t1, t2), S_ATOL),
        ("S_hidden", out["S_hidden"], _chsh_at_point(e_h, t1, t2), S_ATOL),
    ):
        _require(abs(got - want) <= atol, f"{key} {got!r} != closed form {want!r}")


# ---------------------------------------------------------------------------
# joint-disjoint: proper joint tables over disjoint blocks of 14 qubits

DISJOINT_QUBITS = 14
# 4 nested (complement-reduction), 10 of 3+4, 5 of 4+4, 1 of 3+3+3: the
# median falls inside the 3+4 cluster and p90 inside the 4+4 cluster
DISJOINT_CYCLE = (
    "nested", (3, 4), (4, 4), (3, 4), (3, 4),
    "nested", (3, 4), (4, 4), (3, 4), (3, 3, 3),
    "nested", (3, 4), (4, 4), (3, 4), (3, 4),
    "nested", (3, 4), (4, 4), (3, 4), (4, 4),
)


def build_joint_disjoint(rng: np.random.Generator, directory: Path) -> list:
    n = DISJOINT_QUBITS
    scenarios = _write_scenarios(rng, directory, n)
    ops = []
    for i in range(POOL_OPS):
        path, psi = scenarios[i % len(scenarios)]
        kind = DISJOINT_CYCLE[i % len(DISJOINT_CYCLE)]
        perm = [int(q) for q in rng.permutation(n)]
        if kind == "nested":
            # a 3-qubit block inside a 12-qubit one: only replacing the big
            # block by its 2-qubit complement makes the pair disjoint
            inner, outer = perm[:3], perm[:12]
            query = (inner, outer)
            resolved = (inner, perm[12:])
            route = "complement-reduction"
        else:
            query, start = [], 0
            for size in kind:
                query.append(perm[start:start + size])
                start += size
            resolved = query
            route = "pairwise-disjoint"
        expect = {
            "route": route,
            "systems": [_label(s) for s in resolved],
            "shape": [2 ** len(s) for s in resolved],
            "spectra": [_spectrum(psi, n, s) for s in resolved],
        }
        argv = ("joint", path, *(_label(s) for s in query))
        name = kind if isinstance(kind, str) else "+".join(map(str, kind))
        ops.append(Op(name, argv, expect))
    return ops


def check_joint_disjoint(op: Op, stdout: str) -> None:
    out = json.loads(stdout)
    want = op.expect
    _require(out["comparable"] is True, "query reported not comparable")
    _require(out["route"] == want["route"], f"route {out['route']!r} != {want['route']!r}")
    _require(out["systems"] == want["systems"], f"systems {out['systems']} != {want['systems']}")
    dist = out["distribution"]
    _require(dist["shape"] == want["shape"], f"shape {dist['shape']} != {want['shape']}")
    table = np.asarray(dist["values"], dtype=float).reshape(want["shape"])
    total = float(table.sum())
    _require(abs(total - 1.0) <= TABLE_ATOL, f"table sums to {total!r}")
    for axis, spectrum in enumerate(want["spectra"]):
        others = tuple(k for k in range(table.ndim) if k != axis)
        dev = float(np.max(np.abs(table.sum(axis=others) - spectrum)))
        _require(dev <= TABLE_ATOL, f"axis {axis} marginal deviates from the spectrum by {dev:.3e}")


# ---------------------------------------------------------------------------
# joint-overlap: formal tables over overlapping chains of 12 qubits

OVERLAP_QUBITS = 12


def build_joint_overlap(rng: np.random.Generator, directory: Path) -> list:
    n = OVERLAP_QUBITS
    scenarios = _write_scenarios(rng, directory, n)
    ops = []
    for i in range(POOL_OPS):
        path, _ = scenarios[i % len(scenarios)]
        p = [int(q) for q in rng.permutation(n)[:7]]
        # neighbours share one qubit; every complement meets another block
        chain = (p[0:3], p[2:5], p[4:7])
        labels = [_label(s) for s in chain]
        ops.append(Op("chain-3x3", ("joint", path, *labels), {"systems": labels}))
    return ops


def check_joint_overlap(op: Op, stdout: str) -> None:
    out = json.loads(stdout)
    _require(out["comparable"] is False, "overlapping chain reported comparable")
    _require(out["route"] == "none", f"route {out['route']!r} != 'none'")
    _require(out["systems"] == op.expect["systems"], f"systems {out['systems']}")
    quasi = out["quasi"]
    _require(quasi["shape"] == [8, 8, 8], f"shape {quasi['shape']} != [8, 8, 8]")
    values = np.asarray(quasi["values"], dtype=float)
    _require(values.shape == (512, 2), f"{values.shape[0]} quasi entries, expected 512")
    re_sum, im_sum = (float(s) for s in values.sum(axis=0))
    # complete bases: the entries sum to <psi|psi> = 1
    _require(abs(re_sum - 1.0) <= TABLE_ATOL, f"quasi entries sum to {re_sum!r} (real part)")
    _require(abs(im_sum) <= TABLE_ATOL, f"quasi entries sum to {im_sum!r} (imaginary part)")


# ---------------------------------------------------------------------------
# schmidt-cut: Schmidt decomposition across a 4-qubit cut of 12 qubits

SCHMIDT_QUBITS = 12
SCHMIDT_CUT = 4


def build_schmidt(rng: np.random.Generator, directory: Path) -> list:
    n = SCHMIDT_QUBITS
    scenarios = _write_scenarios(rng, directory, n)
    ops = []
    for i in range(POOL_OPS):
        path, psi = scenarios[i % len(scenarios)]
        cut = sorted(int(q) for q in rng.permutation(n)[:SCHMIDT_CUT])
        expect = {"cut": _label(cut), "qubits": cut, "psi": psi}
        ops.append(Op("cut-4", ("schmidt", path, "--cut", _label(cut)), expect))
    return ops


def check_schmidt(op: Op, stdout: str) -> None:
    out = json.loads(stdout)
    want = op.expect
    psi = want["psi"]
    n = SCHMIDT_QUBITS
    _require(out["cut"] == want["cut"], f"cut {out['cut']!r} != {want['cut']!r}")
    c = np.asarray(out["coefficients"], dtype=float)
    norm = float(np.sum(c ** 2))
    _require(abs(norm - 1.0) <= REBUILD_ATOL, f"squared coefficients sum to {norm!r}")
    head = np.asarray(out["left_spectrum"], dtype=float)[: c.size]
    _require(head.size == c.size, "left_spectrum is shorter than the coefficient list")
    dev = float(np.max(np.abs(c ** 2 - head)))
    _require(dev <= REBUILD_ATOL, f"c^2 deviates from left_spectrum by {dev:.3e}")

    def columns(raw):
        arr = np.asarray(raw, dtype=float)  # (k, d, 2)
        return (arr[..., 0] + 1j * arr[..., 1]).T

    left, right = columns(out["left_basis"]), columns(out["right_basis"])
    rest = [q for q in range(n) if q not in want["qubits"]]
    mat = left @ (c[:, None] * right.T)
    order = want["qubits"] + rest
    rebuilt = mat.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)
    dev = float(np.max(np.abs(rebuilt - psi)))
    _require(dev <= REBUILD_ATOL, f"bases rebuild the amplitudes only to {dev:.3e}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bell-point", build_bell, check_bell),
        Workload("joint-disjoint", build_joint_disjoint, check_joint_disjoint),
        Workload("joint-overlap", build_joint_overlap, check_joint_overlap),
        Workload("schmidt-cut", build_schmidt, check_schmidt),
    )
}

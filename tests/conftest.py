"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own reshape and
permutation helpers: the reduction oracle enumerates multi-indices with
explicit stride arithmetic, and the correlation-experiment tables are the
closed forms one obtains by hand from the prepared pair and the half-angle
basis.  Tests compare library output against these, never the other way
around.
"""

import itertools
import math
import re
import time

import numpy as np

SESSION_START = time.time()

_CRITERIA = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", report.nodeid)
    if m:
        _CRITERIA[int(m.group(1))] = (m.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter):
    if _CRITERIA:
        terminalreporter.write_line("acceptance criteria:")
        for num in sorted(_CRITERIA):
            label, outcome = _CRITERIA[num]
            word = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
            terminalreporter.write_line(
                f"  criterion {num} ({label.replace('_', ' ')}): {word}"
            )
    elapsed = time.time() - SESSION_START
    terminalreporter.write_line(f"suite wall time: {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# random-state helpers

def random_dims(rng, max_parts=4, max_dim=3):
    n = int(rng.integers(1, max_parts + 1))
    return tuple(int(rng.integers(2, max_dim + 1)) for _ in range(n))


def random_amplitudes(rng, total):
    raw = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return raw / np.linalg.norm(raw)


# ---------------------------------------------------------------------------
# reduction oracle

def brute_partial_trace(amps, dims, keep_axes):
    """Reduced matrix by explicit index summation.

    Multi-indices are enumerated positionally and flattened with hand-rolled
    row-major strides (first factor slowest), so agreement with the library
    checks its layout convention as well as its arithmetic.
    """
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    n = len(dims)
    keep_axes = sorted(keep_axes)
    traced_axes = [ax for ax in range(n) if ax not in keep_axes]

    def flat(full_index):
        f = 0
        for ax in range(n):
            f = f * dims[ax] + full_index[ax]
        return f

    keep_ranges = [range(dims[ax]) for ax in keep_axes]
    traced_ranges = [range(dims[ax]) for ax in traced_axes]
    dk = 1
    for ax in keep_axes:
        dk *= dims[ax]
    rho = np.zeros((dk, dk), dtype=complex)
    for row, ki in enumerate(itertools.product(*keep_ranges)):
        for col, kj in enumerate(itertools.product(*keep_ranges)):
            acc = 0.0 + 0.0j
            for tt in itertools.product(*traced_ranges):
                idx_i = [0] * n
                idx_j = [0] * n
                for pos, ax in enumerate(keep_axes):
                    idx_i[ax] = ki[pos]
                    idx_j[ax] = kj[pos]
                for pos, ax in enumerate(traced_axes):
                    idx_i[ax] = tt[pos]
                    idx_j[ax] = tt[pos]
                acc += amps[flat(idx_i)] * np.conj(amps[flat(idx_j)])
            rho[row, col] = acc
    return rho


def kron_embedded(matrix, dims, support_axes):
    """Full-space matrix of an operator on the ``support_axes`` factors.

    ``matrix`` acts on those factors in the order listed.  ``np.kron`` pads
    it with the identity on the other factors, which puts the support first,
    and a plain transpose of its row and column axes moves every factor
    back to its declared slot.
    """
    n = len(dims)
    rest = [ax for ax in range(n) if ax not in support_axes]
    order = list(support_axes) + rest
    rest_dim = int(np.prod([dims[ax] for ax in rest]))
    big = np.kron(matrix, np.eye(rest_dim)).reshape([dims[ax] for ax in order] * 2)
    back = [order.index(ax) for ax in range(n)]
    total = int(np.prod(dims))
    return big.transpose(back + [n + p for p in back]).reshape(total, total)


# ---------------------------------------------------------------------------
# correlation-experiment closed forms
#
# Pair state a|ud> - b|du|.  Device bases at angles t1, t2 are the half-angle
# columns xi1 = (cos t/2, sin t/2), xi2 = (-sin t/2, cos t/2).  Outcome index
# j in {0, 1} refers to xi_{j+1}.

def xi_columns(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def pair_amplitude(a, b, x1, x2, j, k):
    """<xi1_j, xi2_k | pair>; the building block of every table below."""
    return a * np.conj(x1[0, j]) * np.conj(x2[1, k]) - b * np.conj(
        x1[1, j]
    ) * np.conj(x2[0, k])


def marginal_table(a, b, t1):
    x1 = xi_columns(t1)
    return np.array(
        [
            abs(a) ** 2 * abs(x1[0, j]) ** 2 + abs(b) ** 2 * abs(x1[1, j]) ** 2
            for j in range(2)
        ]
    )


def quantum_table(a, b, t1, t2):
    x1, x2 = xi_columns(t1), xi_columns(t2)
    out = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            out[j, k] = abs(pair_amplitude(a, b, x1, x2, j, k)) ** 2
    return out


def hidden_table(a, b, t1, t2):
    x1, x2 = xi_columns(t1), xi_columns(t2)
    out = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            out[j, k] = (
                abs(a) ** 2 * abs(x1[0, j]) ** 2 * abs(x2[1, k]) ** 2
                + abs(b) ** 2 * abs(x1[1, j]) ** 2 * abs(x2[0, k]) ** 2
            )
    return out


def quasi_table(a, b, t1, t2):
    """Formal (compound, pointer 1, pointer 2) table.

    The compound axis is ordered by descending weight |a|^2 vs |b|^2, the
    library's convention for its evolved-basis ensemble.
    """
    x1, x2 = xi_columns(t1), xi_columns(t2)
    coeffs = np.array([a, -b], dtype=complex)
    order = np.argsort(-np.abs(coeffs) ** 2, kind="stable")
    phi = np.eye(2, dtype=complex)[:, order]

    def amp(j, k):
        return pair_amplitude(a, b, x1, x2, j, k)

    out = np.zeros((2, 2, 2), dtype=complex)
    for l in range(2):
        for j in range(2):
            for k in range(2):
                acc = 0.0 + 0.0j
                for jp in range(2):
                    acc += (
                        (np.conj(x1[:, jp]) @ phi[:, l])
                        * (np.conj(phi[:, l]) @ x1[:, j])
                        * amp(j, k)
                        * np.conj(amp(jp, k))
                    )
                out[l, j, k] = acc
    return out


def e_quantum_singlet(t1, t2):
    return -math.cos(t1 - t2)


def e_hidden_singlet(t1, t2):
    return -math.cos(t1) * math.cos(t2)

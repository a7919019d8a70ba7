"""Command-line front end: scenario files in, deterministic JSON/CSV out.

Data goes to stdout, diagnostics to stderr.  Identical inputs (including
seeds) produce byte-identical stdout: dict keys are emitted in fixed order
and floats use shortest round-trip formatting.

Exit codes: 0 success, 2 validation failure (nothing computed), 3 internal
numerical invariant violation.

``bell`` evaluates each distinct device setting once: a single point and
its CHSH value share one grid of runs over (0, theta1) x (0, theta2).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .bell import (
    MAX_SWEEP_POINTS,
    BellScenario,
    _bell_record,
    _setting_grid,
    build_bell_state,
    sample_joint_outcomes,
    sweep,
)
from .errors import NumericalInvariantError, ValidationError
from .hilbert import CompositeSystem, PureState, apply, as_subsystem_set
from .measurement import (
    MAX_SAMPLES,
    SAMPLER_ALGORITHM,
    MeasurementDevice,
    _sample_count,
    build_measurement_unitary,
    spin_basis,
)
from .qrs import _reim_pairs, comparability, formal_joint, joint_probability
from .schmidt import schmidt_decompose

INV_SQRT2 = 0.7071067811865476


def _emit_json(obj) -> None:
    sys.stdout.write(_indented_json(obj) + "\n")


def _pair_leaves(value: list):
    """The entries of a list of two-element lists, flattened; None for any other list.

    Every check is a C-level scan, not a Python loop over the entries.
    """
    if set(map(type, value)) == {list} and set(map(len, value)) == {2}:
        return list(chain.from_iterable(value))
    return None


def _float_items(value, level: int):
    """The items of a list at ``level`` as ``json.dumps(indent=2)`` lays them out.

    Only for a list of finite floats or of [re, im] pairs of them, formatted
    with one template and one ``%`` call; None for any other list.
    """
    pad = "\n" + "  " * (level + 1)
    if set(map(type, value)) == {float}:
        floats, item = value, "%r"
    else:
        floats = _pair_leaves(value)
        if floats is None or set(map(type, floats)) != {float}:
            return None
        item = "[" + pad + "  %r," + pad + "  %r" + pad + "]"
    if not math.isfinite(sum(floats)):  # json spells NaN and Infinity its own way
        return None
    return ("," + pad).join([item] * len(value)) % tuple(floats)


def _indented_json(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for string-keyed objects.

    The pure-Python encoder that ``indent`` selects writes one float at a
    time; here whole lists of floats and of [re, im] pairs are formatted at
    once.  Strings and keys go through json's C escaper, and every scalar
    other than a finite float through ``json.dumps`` itself.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    pad = "\n" + "  " * (level + 1)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _float_items(value, level)
        if items is None:
            items = ("," + pad).join([_indented_json(v, level + 1) for v in value])
        return "[" + pad + items + "\n" + "  " * level + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + pad).join([
            encode_basestring_ascii(k) + ": " + _indented_json(v, level + 1)
            for k, v in value.items()
        ])
        return "{" + pad + items + "\n" + "  " * level + "}"
    return json.dumps(value)


# ---------------------------------------------------------------------------
# scenario ingestion

def _too_large(where: str) -> ValidationError:
    return ValidationError(f"{where} is too large for a float")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise _too_large(where) from None


def _number_or_pair(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        real, imag = value, 0.0
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        real, imag = value
    else:
        raise ValidationError(f"{where} must be a number or a [re, im] pair")
    try:
        return complex(float(real), float(imag))
    except OverflowError:
        raise _too_large(where) from None


def _complex_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where} must be a non-empty list of [re, im] pairs")
    # numpy would also take true, "1" and null, so it converts only what the
    # scan shows to be plain number pairs; the loop below names a bad entry.
    leaves = _pair_leaves(value)
    if leaves is not None and set(map(type, leaves)) <= {int, float}:
        try:
            return np.array(leaves, dtype=float).view(complex)
        except OverflowError:
            pass
    out = np.empty(len(value), dtype=complex)
    try:
        for k, entry in enumerate(value):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise ValidationError(f"{where}[{k}] must be a [re, im] pair")
            out[k] = complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        raise _too_large(f"{where}[{k}]") from None
    return out


def _device_from_json(entry, index: int):
    where = f"devices[{index}]"
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} must be an object")
    label = entry.get("label")
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{where}: 'label' must be a non-empty string")
    target = entry.get("target")
    if isinstance(target, str):
        target_labels = [target]
    elif isinstance(target, list) and target and all(isinstance(t, str) for t in target):
        target_labels = list(target)
    else:
        raise ValidationError(f"{where}: 'target' must be a label or list of labels")
    has_theta = "theta" in entry
    has_basis = "basis" in entry
    if has_theta == has_basis:
        raise ValidationError(f"{where}: give exactly one of 'theta' or 'basis'")
    if has_theta:
        basis = spin_basis(_number(entry["theta"], f"{where}: 'theta'"))
    else:
        raw = entry["basis"]
        if not isinstance(raw, list) or not raw:
            raise ValidationError(
                f"{where}: 'basis' must be a list of measured-state vectors"
            )
        columns = [
            _complex_vector(vec, f"{where}: basis[{k}]") for k, vec in enumerate(raw)
        ]
        if any(c.size != columns[0].size for c in columns):
            raise ValidationError(f"{where}: basis vectors must share one dimension")
        basis = np.stack(columns, axis=1)
    pointer_dim = entry.get("pointer_dim")
    if pointer_dim is not None and (isinstance(pointer_dim, bool) or not isinstance(pointer_dim, int)):
        raise ValidationError(f"{where}: 'pointer_dim' must be an integer")
    ready = entry.get("ready_index", 0)
    if isinstance(ready, bool) or not isinstance(ready, int):
        raise ValidationError(f"{where}: 'ready_index' must be an integer")
    pointers = entry.get("pointers")
    if pointers is not None and (
        not isinstance(pointers, list)
        or any(isinstance(p, bool) or not isinstance(p, int) for p in pointers)
    ):
        raise ValidationError(f"{where}: 'pointers' must be a list of integers")
    device = MeasurementDevice.from_basis(label, basis, pointer_dim, ready, pointers)
    return device, target_labels


def _initial_state(data, comp: CompositeSystem, devices) -> PureState:
    state = data.get("state")
    if isinstance(state, list):
        return PureState(comp, _complex_vector(state, "state"))
    if isinstance(state, dict):
        name = state.get("name")
        if name != "bell":
            raise ValidationError(
                f"unknown state constructor {name!r}; available: 'bell'"
            )
        a = _number_or_pair(state.get("a"), "state.a")
        b = _number_or_pair(state.get("b"), "state.b")
        ready = {device.label: device.ready_index for device, _ in devices}
        return build_bell_state(a, b, comp, ready)
    raise ValidationError(
        "'state' must be an amplitude list or a named-constructor object"
    )


def _prepare(path: str):
    """Load a scenario file and return (prepared state, composite, raw data)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}: invalid JSON: {exc.msg}"
        ) from None
    try:
        if not isinstance(data, dict):
            raise ValidationError("scenario must be a JSON object")
        subsystems = data.get("subsystems")
        if not isinstance(subsystems, list) or not subsystems:
            raise ValidationError("'subsystems' must be a non-empty list")
        pairs = []
        for k, entry in enumerate(subsystems):
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("label"), str)
                or isinstance(entry.get("dim"), bool)
                or not isinstance(entry.get("dim"), int)
            ):
                raise ValidationError(
                    f"subsystems[{k}] must be an object with 'label' and integer 'dim'"
                )
            pairs.append((entry["label"], entry["dim"]))
        comp = CompositeSystem(pairs)
        raw_devices = data.get("devices", [])
        if not isinstance(raw_devices, list):
            raise ValidationError("'devices' must be a list")
        devices = [
            _device_from_json(entry, k) for k, entry in enumerate(raw_devices)
        ]
        seen = set()
        for device, _ in devices:
            if device.label in seen:
                raise ValidationError(
                    f"duplicate device label {device.label!r}"
                )
            seen.add(device.label)
        psi = _initial_state(data, comp, devices)
        for device, target_labels in devices:
            target = as_subsystem_set(target_labels, comp)
            op = build_measurement_unitary(device, target)
            psi = apply(op, psi)
        return psi, comp, data
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _resolve_set(expr: str, comp: CompositeSystem):
    parts = str(expr).split("+")
    if any(not p for p in parts):
        raise ValidationError(f"system expression {expr!r} has an empty label")
    try:
        return as_subsystem_set(parts, comp)
    except ValidationError as exc:
        raise ValidationError(f"system expression {expr!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_schmidt(args) -> int:
    psi, comp, _ = _prepare(args.scenario)
    cut = _resolve_set(args.cut, comp)
    sd = schmidt_decompose(psi, cut)
    # Both sides of a pure state share one spectrum: the squared Schmidt
    # coefficients, zero-padded to each side's dimension.
    squares = np.clip(sd.coefficients ** 2, 0.0, 1.0).tolist()
    out = {
        "cut": sd.left.label,
        "complement": sd.right.label,
        "coefficients": sd.coefficients.tolist(),
        "rank": int(sd.rank),
        "left_basis": _reim_pairs(sd.left_basis.T),
        "right_basis": _reim_pairs(sd.right_basis.T),
        "left_spectrum": squares + [0.0] * (sd.left.joint_dim - len(squares)),
        "right_spectrum": squares + [0.0] * (sd.right.joint_dim - len(squares)),
    }
    _emit_json(out)
    return 0


def _joint_query(psi: PureState, comp: CompositeSystem, exprs) -> dict:
    sets = [_resolve_set(e, comp) for e in exprs]
    verdict = comparability(sets, comp)
    out = {"query": [s.label for s in sets], **verdict.to_json_dict()}
    if verdict.comparable:
        # One substitution per replaced position, in query order and leftmost
        # first among equal systems: a system named twice is replaced once.
        resolved, start = list(sets), 0
        for orig, repl in verdict.substitutions:
            start = resolved.index(orig, start)
            resolved[start] = repl
            start += 1
        out["systems"] = [s.label for s in resolved]
        out["distribution"] = joint_probability(resolved, psi).to_json_dict()
        return out
    quasi = formal_joint(sets, psi)
    print(
        "NOT COMPARABLE: "
        + " ".join(s.label for s in sets)
        + f" (max_imag={quasi.max_imag!r}, min_real={quasi.min_real!r})",
        file=sys.stderr,
    )
    out["systems"] = [s.label for s in sets]
    out["quasi"] = quasi.to_json_dict()
    return out


def cmd_joint(args) -> int:
    psi, comp, data = _prepare(args.scenario)
    if args.systems:
        _emit_json(_joint_query(psi, comp, args.systems))
        return 0
    queries = data.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ValidationError(
            "no systems given on the command line and the scenario has no 'queries'"
        )
    results = []
    for k, query in enumerate(queries):
        if not isinstance(query, list) or not all(isinstance(q, str) for q in query):
            raise ValidationError(
                f"{args.scenario}: queries[{k}] must be a list of system expressions"
            )
        results.append(_joint_query(psi, comp, query))
    _emit_json({"queries": results})
    return 0


def _parse_chsh_angles(raw: str, degrees: bool) -> tuple:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValidationError(
            "--chsh-angles needs four comma-separated angles: a1,a2,b1,b2"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--chsh-angles: could not parse {raw!r}") from None
    if degrees:
        values = [math.radians(v) for v in values]
    return tuple(values)


def cmd_bell(args) -> int:
    modes = sum(1 for flag in (args.sweep, args.chsh_angles) if flag is not None)
    if modes > 1:
        raise ValidationError("choose one of --sweep / --chsh-angles")
    if args.samples is not None:
        if modes:
            raise ValidationError("--samples applies only to single-point runs")
        if args.model == "quasi":
            raise ValidationError(
                "model 'quasi' is not a probability table and cannot be sampled"
            )
        _sample_count(args.samples)

    theta1, theta2 = args.theta1, args.theta2
    if args.degrees:
        theta1, theta2 = math.radians(theta1), math.radians(theta2)

    if args.sweep is not None:
        header, rows = sweep(args.a, args.b, points=args.sweep)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return 0

    include_m3 = args.model in ("hidden", "all")
    if args.chsh_angles is not None:
        angles = _parse_chsh_angles(args.chsh_angles, args.degrees)
        if args.model == "quasi":
            raise ValidationError(
                "model 'quasi' has no correlator; valid models for --chsh-angles: "
                "quantum, hidden, all"
            )
        grid = _setting_grid(args.a, args.b, angles[:2], angles[2:], include_m3)
        out = {"angles": [float(v) for v in angles], "model": args.model}
        if args.model in ("quantum", "all"):
            out["S_quantum"] = float(grid["S_quantum"][1, 1])
        if args.model in ("hidden", "all"):
            out["S_hidden"] = float(grid["S_hidden"][1, 1])
        _emit_json(out)
        return 0

    # The point is the last cell of its own CHSH grid (0, theta1 | 0, theta2),
    # so the S values cost no run beyond the grid's distinct settings.
    if args.model == "quasi":
        grid = _setting_grid(args.a, args.b, (theta1,), (theta2,), include_m3)
    else:
        grid = _setting_grid(
            args.a, args.b, (0.0, theta1), (0.0, theta2), include_m3
        )
    cell = {name: None if col is None else col[-1, -1] for name, col in grid.items()}
    full = _bell_record(BellScenario(args.a, args.b, theta1, theta2), cell)
    out = {
        "a": full["a"],
        "b": full["b"],
        "theta1": full["theta1"],
        "theta2": full["theta2"],
        "model": args.model,
        "outcome_values": full["outcome_values"],
    }
    if args.model in ("quantum", "all"):
        out["marginal1"] = full["marginal1"]
        out["marginal2"] = full["marginal2"]
        out["quantum_joint"] = full["quantum_joint"]
        out["E_quantum"] = full["E_quantum"]
        out["S_quantum"] = float(cell["S_quantum"])
    if args.model in ("hidden", "all"):
        out["hidden_joint"] = full["hidden_joint"]
        out["E_hidden"] = full["E_hidden"]
        out["S_hidden"] = float(cell["S_hidden"])
    if args.model in ("quasi", "all"):
        out["quasi"] = full["quasi"]
    if args.samples is not None:
        table = cell["hidden_table" if args.model == "hidden" else "quantum_table"]
        counts = sample_joint_outcomes(table, args.samples, args.seed)
        out["sampling"] = {
            "n": int(args.samples),
            "seed": int(args.seed),
            "algorithm": SAMPLER_ALGORITHM,
            "counts": [[int(c) for c in row] for row in counts],
            "frequencies": [
                [float(c / args.samples) for c in row] for row in counts
            ],
        }
    _emit_json(out)
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrsim",
        description=(
            "Relative-state simulations: Schmidt analysis, joint internal-state "
            "probabilities, and the two-particle correlation experiment."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schmidt = sub.add_parser(
        "schmidt", help="Schmidt decomposition of a scenario state across a cut"
    )
    p_schmidt.add_argument("scenario", help="scenario JSON file")
    p_schmidt.add_argument(
        "--cut", required=True, help="left side of the cut, labels joined with '+'"
    )
    p_schmidt.set_defaults(func=cmd_schmidt)

    p_joint = sub.add_parser(
        "joint", help="joint (or formal) outcome table for named systems"
    )
    p_joint.add_argument("scenario", help="scenario JSON file")
    p_joint.add_argument(
        "systems",
        nargs="*",
        help="system expressions like P1 or P1+M1 (defaults to scenario 'queries')",
    )
    p_joint.set_defaults(func=cmd_joint)

    p_bell = sub.add_parser(
        "bell", help="two-particle correlation experiment quantities"
    )
    p_bell.add_argument("--a", type=float, default=INV_SQRT2, help="pair coefficient a")
    p_bell.add_argument("--b", type=float, default=INV_SQRT2, help="pair coefficient b")
    p_bell.add_argument("--theta1", type=float, default=0.0, help="first device angle")
    p_bell.add_argument("--theta2", type=float, default=0.0, help="second device angle")
    p_bell.add_argument(
        "--model",
        choices=["quantum", "hidden", "quasi", "all"],
        default="all",
        help="which statistics to emit",
    )
    p_bell.add_argument(
        "--sweep",
        type=int,
        nargs="?",
        const=16,
        default=None,
        metavar="POINTS",
        help=(
            "emit a CSV angle-grid sweep (default 16, at most "
            f"{MAX_SWEEP_POINTS} points per axis)"
        ),
    )
    p_bell.add_argument(
        "--chsh-angles",
        default=None,
        metavar="A1,A2,B1,B2",
        help="emit the CHSH combination for four comma-separated angles; a negative "
        "first angle needs the one-token form --chsh-angles=-A1,A2,B1,B2",
    )
    p_bell.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_bell.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help=f"draw N outcomes (at most {MAX_SAMPLES}) and report empirical frequencies",
    )
    p_bell.add_argument(
        "--degrees", action="store_true", help="interpret angles as degrees"
    )
    p_bell.set_defaults(func=cmd_bell)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"internal numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

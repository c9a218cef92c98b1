"""Command-line interface: scenario files in, solver artifacts out.

Commands: ``validate`` (structural checks + bounds), ``load`` (network
loading of an embedded departure profile), ``opt`` (global-cost
minimization), ``nash`` (equilibrium search).  Exit codes: 0 success,
1 non-convergence (best iterate still written), 2 input error.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from .curves import csv_rows, write_curve_csv
from .errors import DomainError, KinwaveError, ScenarioError
from .flux import ArcDescriptor, FluxDescriptor, table_knots
from .loading import DepartureProfile, network_load
from .network import (CostFunction, GroupDescriptor, Network, compute_bounds,
                      validate_assumptions)
from .solvers import solve_global, solve_nash, total_cost

_SOLVER_DEFAULTS = {
    "bins": 64, "dt": 1e-3, "tol": 1e-3, "damping": 0.2,
    "max_iter": 5000, "restarts": 2, "seed": 0,
}
_POSITIVE = ("bins", "dt", "tol", "damping")
_COUNTS = ("bins", "max_iter", "restarts", "seed")
_MAX_BINS = 10**6


@dataclass
class Scenario:
    """A parsed and validated scenario file."""

    network: Network
    solver: dict
    profile: DepartureProfile | None = None


@contextmanager
def _at(where):
    """Re-raise a library error from the block as a ScenarioError naming ``where``."""
    try:
        yield
    except ScenarioError:
        raise
    except KinwaveError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing key {key!r}")


def _number(v, where):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:     # NaN, infinities, ints too big for a float
        raise ScenarioError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _list(obj, key, where):
    v = obj[key]
    if not isinstance(v, list):
        raise ScenarioError(f"{where}.{key}: expected a list, got {v!r}")
    return v


def _finite_array(v, where):
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"{where}: {e}") from e
    if not np.all(np.isfinite(a)):
        raise ScenarioError(f"{where}: expected finite numbers")
    return a


def _node(obj, key, where, node_set):
    v = obj[key]
    if not isinstance(v, str) or v not in node_set:
        raise ScenarioError(f"{where}.{key}: unknown node {v!r}")
    return v


def _parse_kind(cls, obj, where):
    """A FluxDescriptor or CostFunction from ``{"kind": ..., <parameters>}``;
    ``cls.KINDS`` says which parameters each kind takes."""
    _require_keys(obj, {"kind"}, obj, where)    # the kind checks the other keys
    params = {key: (_finite_array if key == "breakpoints" else _number)(v, f"{where}.{key}")
              for key, v in obj.items() if key != "kind"}
    with _at(where):
        return cls(obj["kind"], params)


def _solver_value(key, v, where):
    """``v`` checked as the solver setting ``key``, which ``where`` names."""
    x = _number(v, where)
    if key in _POSITIVE and x <= 0:
        raise ScenarioError(f"{where}: must be positive")
    if key == "dt":
        with _at(where):
            table_knots(x)
    if key not in _COUNTS:
        return x
    if x < 0 or x != int(x):
        raise ScenarioError(f"{where}: must be a nonnegative integer")
    if key == "bins" and x < 2:
        raise ScenarioError(f"{where}: must be at least 2")
    if key == "bins" and x > _MAX_BINS:
        raise ScenarioError(f"{where}: must be at most {_MAX_BINS}")
    return int(v)


def parse_scenario(path) -> Scenario:
    """Load, validate, and materialize a scenario file.

    Raises ScenarioError with a location-bearing message on any schema
    violation or dangling reference.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON: {e}") from e

    _require_keys(
        doc, {"format", "nodes", "arcs", "groups"}, {"solver", "profile"}, "scenario"
    )
    if doc["format"] != 1:
        raise ScenarioError(f"scenario.format: unsupported version {doc['format']!r}")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ScenarioError("scenario.nodes: expected a list of node id strings")
    node_set = set(nodes)

    arcs = []
    for i, a in enumerate(_list(doc, "arcs", "scenario")):
        where = f"arcs[{i}]"
        _require_keys(a, {"from", "to", "length", "flux"}, set(), where)
        with _at(where):
            arcs.append(ArcDescriptor(
                _node(a, "from", where, node_set), _node(a, "to", where, node_set),
                _number(a["length"], f"{where}.length"),
                _parse_kind(FluxDescriptor, a["flux"], f"{where}.flux")))

    groups = []
    for i, g in enumerate(_list(doc, "groups", "scenario")):
        where = f"groups[{i}]"
        _require_keys(g, {"size", "origin", "destination", "departure_cost", "arrival_cost"},
                      set(), where)
        with _at(where):
            groups.append(GroupDescriptor(
                _number(g["size"], f"{where}.size"), _node(g, "origin", where, node_set),
                _node(g, "destination", where, node_set),
                _parse_kind(CostFunction, g["departure_cost"], f"{where}.departure_cost"),
                _parse_kind(CostFunction, g["arrival_cost"], f"{where}.arrival_cost")))

    solver = dict(_SOLVER_DEFAULTS)
    section = doc.get("solver", {})
    _require_keys(section, set(), _SOLVER_DEFAULTS, "solver")
    for key, v in section.items():
        solver[key] = _solver_value(key, v, f"solver.{key}")

    with _at("scenario"):
        network = Network(nodes, arcs, groups, dt=solver["dt"])

    profile = None
    if "profile" in doc:
        p = doc["profile"]
        _require_keys(p, {"start", "bin_width", "rates"}, set(), "profile")
        rates = _finite_array(p["rates"], "profile.rates")
        with _at("profile"):
            profile = DepartureProfile(_number(p["start"], "profile.start"),
                                       _number(p["bin_width"], "profile.bin_width"), rates)
            profile.validate(network)
    return Scenario(network=network, solver=solver, profile=profile)


# ---------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------


def _nan_in(obj):
    """Whether a float NaN sits anywhere among ``obj``'s values."""
    if isinstance(obj, (dict, list, tuple)):
        return any(map(_nan_in, obj.values() if isinstance(obj, dict) else obj))
    return isinstance(obj, float) and obj != obj


def _write_json(path, obj):
    """Write ``obj`` as JSON.  An infinity is an overflow at the scenario's
    extreme scales, an input error; a NaN is a defect, raised as ValueError."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        if _nan_in(obj):
            raise ValueError(f"{path.name}: a result is NaN") from e
        raise DomainError(f"{path.name}: {e}") from e
    path.write_text(text + "\n", encoding="utf-8")


def _profile_dict(profile):
    return {
        "start": profile.start,
        "bin_width": profile.bin_width,
        "rates": profile.rates.tolist(),
    }


def _dump_curves(loading, out_dir):
    """One CSV per arc flow, component curve and arrival curve.  A curve
    object can back several files (a cell's exit share of one hop is its
    entry into the next, and its last share its arrivals; on a chain an
    arc's exit is also a lone cell's share), so the files are grouped by
    curve and each curve is formatted once."""
    cdir = out_dir / "curves"
    cdir.mkdir(parents=True, exist_ok=True)
    files = {}      # id(curve) -> (curve, [paths])

    def add(curve, name):
        files.setdefault(id(curve), (curve, []))[1].append(cdir / name)

    for key, comp in sorted(loading.arc_flows.items()):
        stem = f"arc_{key[0]}_{key[1]}"
        add(comp.entry, f"{stem}_entry.csv")
        add(comp.exit, f"{stem}_exit.csv")
    for (k, p), record in loading.curves.items():
        for arc, entry, share in zip(loading.network.paths[p].arcs, record, record[1:]):
            stem = f"comp_g{k}_p{p}_{arc.key[0]}_{arc.key[1]}"
            add(entry, f"{stem}_entry.csv")
            add(share, f"{stem}_exit.csv")
        add(record[-1], f"arrivals_g{k}_p{p}.csv")
    for curve, paths in files.values():
        write_curve_csv(curve, *paths)


def _emit_plot_data(loading, out_dir):
    with open(out_dir / "plot_data.csv", "w", encoding="utf-8") as f:
        f.write("series,t,value\n")
        for key, comp in sorted(loading.arc_flows.items()):
            for name, curve in (("entry", comp.entry), ("exit", comp.exit)):
                f.write(csv_rows(curve, f"arc_{key[0]}_{key[1]}_{name},"))
        for (k, p), record in loading.curves.items():
            f.write(csv_rows(record[-1], f"arrivals_g{k}_p{p},"))


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------


def _setup(scenario_path, out_dir, flags):
    """Parse the scenario, then override its solver settings by the given
    ``flags``, each checked like its ``solver`` key."""
    scenario = parse_scenario(scenario_path)
    for key, v in flags.items():
        if v is not None:
            scenario.solver[key] = _solver_value(key, v, f"--{key}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return scenario, out


@click.group()
def main():
    """Kinematic-wave network loading and departure-time equilibria."""


def _command(*names):
    """Register ``body(scenario, out, **flags)`` as a command that takes
    ``--scenario``, ``--out`` and the options ``names``: ``bins``, ``tol``
    and ``seed`` override solver settings, and the curve flags go to
    ``body``, whose return value is the exit code.  Input errors exit 2
    before ``timing.json`` is written; a library error from ``body`` is
    reported as one of the scenario's."""
    options = {
        "scenario": click.option("--scenario", "scenario_path", required=True,
                                 type=click.Path(), help="Scenario JSON file."),
        "out": click.option("--out", "out_dir", default=".", type=click.Path(),
                            help="Output directory."),
        "bins": click.option("--bins", type=int, default=None, help="Override solver bins."),
        "tol": click.option("--tol", type=float, default=None,
                            help="Override solver tolerance."),
        "seed": click.option("--seed", type=int, default=None, help="Override solver seed."),
        "dump_curves": click.option("--dump-curves", is_flag=True,
                                    help="Write per-arc curve CSVs."),
        "emit_plot_data": click.option("--emit-plot-data", is_flag=True,
                                       help="Write tidy long-format plot_data.csv."),
    }

    def register(body):
        def run(scenario_path, out_dir, **flags):
            t0 = time.perf_counter()
            solver = {key: flags.pop(key) for key in ("bins", "tol", "seed") if key in flags}
            try:
                scenario, out = _setup(scenario_path, out_dir, solver)
                with _at("scenario"):
                    code = body(scenario, out, **flags)
            except KinwaveError as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
            _write_json(out / "timing.json", {"wall_time_s": time.perf_counter() - t0})
            sys.exit(code)

        for name in reversed(("scenario", "out") + names):
            run = options[name](run)
        return main.command(name=body.__name__, help=body.__doc__)(run)

    return register


def _write_results(out, doc, profile, loading, dump_curves, emit_plot_data):
    """Write report.json and profile.json, then the requested curve files
    from ``loading``, the loading of ``profile``."""
    _write_json(out / "report.json", doc)
    _write_json(out / "profile.json", _profile_dict(profile))
    if dump_curves:
        _dump_curves(loading, out)
    if emit_plot_data:
        _emit_plot_data(loading, out)


@_command()
def validate(scenario, out):
    """Check structural assumptions and report solver bounds."""
    try:
        bounds = compute_bounds(scenario.network)
        bounds_info = asdict(bounds)
        window = (-bounds.t0, bounds.t0)
    except KinwaveError as e:
        bounds_info = {"error": str(e)}
        window = (-1.0, 1.0)
    assumptions = validate_assumptions(scenario.network, window)
    doc = {
        "assumptions": assumptions,
        "bounds": bounds_info,
        "paths": ["->".join(p.nodes) for p in scenario.network.paths],
    }
    _write_json(out / "report.json", doc)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if assumptions["passed"] and "error" not in bounds_info else 1


@_command("dump_curves", "emit_plot_data")
def load(scenario, out, dump_curves, emit_plot_data):
    """Run network loading on the scenario's embedded departure profile."""
    if scenario.profile is None:
        raise ScenarioError("scenario: load requires a 'profile' section")
    loading = network_load(scenario.network, scenario.profile)
    J = total_cost(scenario.network, scenario.profile, loading=loading)
    doc = {
        "total_cost": J,
        "end_time": loading.end_time,
        "windows": loading.windows,
        "arrival_totals": [
            loading.arrival_total(k) for k in range(len(scenario.network.groups))
        ],
    }
    _write_results(out, doc, scenario.profile, loading, dump_curves, emit_plot_data)
    click.echo(f"total_cost {J:.12g}")
    return 0


@_command("bins", "tol", "seed", "dump_curves", "emit_plot_data")
def opt(scenario, out, dump_curves, emit_plot_data):
    """Search for a departure pattern minimizing the aggregate cost."""
    cfg = scenario.solver
    profile, J, report = solve_global(
        scenario.network, bins=cfg["bins"], tol=cfg["tol"],
        max_iter=cfg["max_iter"], restarts=cfg["restarts"], seed=cfg["seed"],
    )
    doc = {"total_cost": J, "converged": report.converged, "gap": report.gap,
           "stop_reason": report.stop_reason, "solver": cfg}
    _write_results(out, doc, profile, report.loading, dump_curves, emit_plot_data)
    click.echo(f"total_cost {J:.12g}")
    return 0 if report.converged else 1


@_command("bins", "tol", "dump_curves", "emit_plot_data")
def nash(scenario, out, dump_curves, emit_plot_data):
    """Search for a Nash-equilibrium departure pattern."""
    cfg = scenario.solver
    profile, report = solve_nash(
        scenario.network, bins=cfg["bins"], tol=cfg["tol"],
        max_iter=cfg["max_iter"], damping=cfg["damping"],
    )
    J = total_cost(scenario.network, profile, loading=report.loading)
    doc = {"equilibrium": report.as_dict(), "total_cost": J, "solver": cfg}
    _write_results(out, doc, profile, report.loading, dump_curves, emit_plot_data)
    click.echo(f"gap {report.gap:.12g} total_cost {J:.12g}")
    return 0 if report.converged else 1


if __name__ == "__main__":
    main()

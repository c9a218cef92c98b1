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
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .curves import write_curve_csv
from .errors import ConfigurationError, KinwaveError, ScenarioError
from .flux import ArcDescriptor, FluxDescriptor
from .loading import DepartureProfile, network_load
from .network import (CostFunction, GroupDescriptor, Network, compute_bounds,
                      validate_assumptions)
from .solvers import solve_global, solve_nash, total_cost

_FLUX_KEYS = {
    "greenshields": {"v_free", "rho_jam"},
    "triangular": {"v_free", "w_back", "rho_jam"},
    "sampled": {"breakpoints"},
}
_COST_KEYS = {
    "affine": {"a", "b"},
    "quadratic": {"a", "b", "c"},
    "vickrey": {"target", "early_rate", "late_rate", "smoothing"},
}
_SOLVER_KEYS = {"bins", "dt", "tol", "damping", "max_iter", "restarts", "seed"}
_SOLVER_DEFAULTS = {
    "bins": 64, "dt": 1e-3, "tol": 1e-3, "damping": 0.2,
    "max_iter": 5000, "restarts": 2, "seed": 0,
}


@dataclass
class Scenario:
    """A parsed and validated scenario file."""

    network: Network
    solver: dict
    profile: DepartureProfile | None = None
    path: str = ""


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing key {key!r}")


def _number(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:     # NaN, infinities, ints too big for a float
        raise ScenarioError(f"{where}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _list(obj, key, where):
    v = obj[key]
    if not isinstance(v, list):
        raise ScenarioError(f"{where}.{key}: expected a list, got {v!r}")
    return v


def _finite_array(obj, key, where):
    try:
        a = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"{where}.{key}: {e}") from e
    if not np.all(np.isfinite(a)):
        raise ScenarioError(f"{where}.{key}: expected finite numbers")
    return a


def _node(obj, key, where, node_set):
    v = obj[key]
    if not isinstance(v, str) or v not in node_set:
        raise ScenarioError(f"{where}.{key}: unknown node {v!r}")
    return v


def _parse_flux(obj, where):
    _require_keys(obj, {"kind"}, set.union(*_FLUX_KEYS.values()), where)
    kind = obj["kind"]
    if kind not in _FLUX_KEYS:
        raise ScenarioError(f"{where}.kind: unknown flux kind {kind!r}")
    _require_keys(obj, _FLUX_KEYS[kind] | {"kind"}, set(), where)
    try:
        if kind == "greenshields":
            return FluxDescriptor.greenshields(
                _number(obj, "v_free", where), _number(obj, "rho_jam", where)
            )
        if kind == "triangular":
            return FluxDescriptor.triangular(
                _number(obj, "v_free", where), _number(obj, "w_back", where),
                _number(obj, "rho_jam", where),
            )
        return FluxDescriptor.sampled(_finite_array(obj, "breakpoints", where))
    except ConfigurationError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _parse_cost(obj, where):
    _require_keys(obj, {"kind"}, set.union(*(set(v) for v in _COST_KEYS.values())), where)
    kind = obj["kind"]
    if kind == "affine":
        _require_keys(obj, {"kind", "a", "b"}, set(), where)
        return CostFunction.affine(_number(obj, "a", where), _number(obj, "b", where))
    if kind == "quadratic":
        _require_keys(obj, {"kind", "a", "b", "c"}, set(), where)
        return CostFunction.quadratic(
            _number(obj, "a", where), _number(obj, "b", where), _number(obj, "c", where)
        )
    if kind == "vickrey":
        _require_keys(obj, {"kind", "target", "early_rate", "late_rate"}, {"smoothing"},
                      where)
        smoothing = _number(obj, "smoothing", where) if "smoothing" in obj else 0.05
        try:
            return CostFunction.vickrey(
                _number(obj, "target", where), _number(obj, "early_rate", where),
                _number(obj, "late_rate", where), smoothing,
            )
        except ConfigurationError as e:
            raise ScenarioError(f"{where}: {e}") from e
    raise ScenarioError(f"{where}.kind: unknown cost kind {kind!r}")


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
        try:
            arcs.append(
                ArcDescriptor(_node(a, "from", where, node_set),
                              _node(a, "to", where, node_set), _number(a, "length", where),
                              _parse_flux(a["flux"], where + ".flux"))
            )
        except KinwaveError as e:
            if isinstance(e, ScenarioError):
                raise
            raise ScenarioError(f"{where}: {e}") from e

    groups = []
    for i, g in enumerate(_list(doc, "groups", "scenario")):
        where = f"groups[{i}]"
        _require_keys(
            g, {"size", "origin", "destination", "departure_cost", "arrival_cost"},
            set(), where,
        )
        try:
            groups.append(
                GroupDescriptor(
                    _number(g, "size", where), _node(g, "origin", where, node_set),
                    _node(g, "destination", where, node_set),
                    _parse_cost(g["departure_cost"], where + ".departure_cost"),
                    _parse_cost(g["arrival_cost"], where + ".arrival_cost"),
                )
            )
        except KinwaveError as e:
            if isinstance(e, ScenarioError):
                raise
            raise ScenarioError(f"{where}: {e}") from e

    solver = dict(_SOLVER_DEFAULTS)
    if "solver" in doc:
        _require_keys(doc["solver"], set(), _SOLVER_KEYS, "solver")
        for key in doc["solver"]:
            _number(doc["solver"], key, "solver")
        solver.update(doc["solver"])
    for key in ("bins", "dt", "tol", "damping"):
        if solver[key] <= 0:
            raise ScenarioError(f"solver.{key}: must be positive")
    for key in ("bins", "max_iter", "restarts", "seed"):
        if solver[key] < 0 or solver[key] != int(solver[key]):
            raise ScenarioError(f"solver.{key}: must be a nonnegative integer")
        solver[key] = int(solver[key])

    try:
        network = Network(nodes, arcs, groups)
    except KinwaveError as e:
        raise ScenarioError(f"scenario: {e}") from e

    profile = None
    if "profile" in doc:
        p = doc["profile"]
        _require_keys(p, {"start", "bin_width", "rates"}, set(), "profile")
        rates = _finite_array(p, "rates", "profile")
        try:
            profile = DepartureProfile(
                _number(p, "start", "profile"), _number(p, "bin_width", "profile"), rates
            )
            profile.validate(network)
        except KinwaveError as e:
            raise ScenarioError(f"profile: {e}") from e
    return Scenario(network=network, solver=solver, profile=profile, path=str(path))


# ---------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _profile_dict(profile):
    return {
        "start": profile.start,
        "bin_width": profile.bin_width,
        "rates": profile.rates.tolist(),
    }


def _dump_curves(loading, out_dir):
    cdir = out_dir / "curves"
    cdir.mkdir(parents=True, exist_ok=True)
    for key, comp in sorted(loading.arc_flows.items()):
        stem = f"arc_{key[0]}_{key[1]}"
        write_curve_csv(comp.entry, cdir / f"{stem}_entry.csv")
        write_curve_csv(comp.exit, cdir / f"{stem}_exit.csv")
    for (k, p, key), curve in sorted(loading.comp_entry.items()):
        write_curve_csv(curve, cdir / f"comp_g{k}_p{p}_{key[0]}_{key[1]}_entry.csv")
    for (k, p, key), curve in sorted(loading.comp_exit.items()):
        write_curve_csv(curve, cdir / f"comp_g{k}_p{p}_{key[0]}_{key[1]}_exit.csv")
    for (k, p), curve in sorted(loading.arrivals.items()):
        write_curve_csv(curve, cdir / f"arrivals_g{k}_p{p}.csv")


def _emit_plot_data(loading, out_dir):
    rows = ["series,t,value"]
    for key, comp in sorted(loading.arc_flows.items()):
        for name, curve in (("entry", comp.entry), ("exit", comp.exit)):
            series = f"arc_{key[0]}_{key[1]}_{name}"
            for t, v in zip(curve.t, curve.v):
                rows.append(f"{series},{t:.17g},{v:.17g}")
    for (k, p), curve in sorted(loading.arrivals.items()):
        series = f"arrivals_g{k}_p{p}"
        for t, v in zip(curve.t, curve.v):
            rows.append(f"{series},{t:.17g},{v:.17g}")
    (out_dir / "plot_data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------


def _common_options(f):
    f = click.option("--scenario", "scenario_path", required=True,
                     type=click.Path(), help="Scenario JSON file.")(f)
    f = click.option("--out", "out_dir", default=".", type=click.Path(),
                     help="Output directory.")(f)
    f = click.option("--bins", type=int, default=None, help="Override solver bins.")(f)
    f = click.option("--tol", type=float, default=None, help="Override solver tolerance.")(f)
    f = click.option("--seed", type=int, default=None, help="Override solver seed.")(f)
    f = click.option("--dump-curves", is_flag=True, help="Write per-arc curve CSVs.")(f)
    f = click.option("--emit-plot-data", is_flag=True,
                     help="Write tidy long-format plot_data.csv.")(f)
    return f


def _setup(scenario_path, out_dir, bins, tol, seed):
    scenario = parse_scenario(scenario_path)
    if bins is not None:
        if bins <= 0:
            raise ScenarioError("--bins must be positive")
        scenario.solver["bins"] = bins
    if tol is not None:
        if not tol > 0:
            raise ScenarioError("--tol must be positive")
        scenario.solver["tol"] = tol
    if seed is not None:
        scenario.solver["seed"] = seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return scenario, out


@click.group()
def main():
    """Kinematic-wave network loading and departure-time equilibria."""


def _command(body):
    """Register ``body(scenario, out, dump_curves, emit_plot_data)`` as a
    command; its return value is the exit code.  Input errors exit 2 before
    ``timing.json`` is written."""

    @main.command(name=body.__name__, help=body.__doc__)
    @_common_options
    def run(scenario_path, out_dir, bins, tol, seed, dump_curves, emit_plot_data):
        t0 = time.perf_counter()
        try:
            scenario, out = _setup(scenario_path, out_dir, bins, tol, seed)
            code = body(scenario, out, dump_curves, emit_plot_data)
        except KinwaveError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        _write_json(out / "timing.json", {"wall_time_s": time.perf_counter() - t0})
        sys.exit(code)

    return run


def _write_results(scenario, out, doc, profile, dump_curves, emit_plot_data,
                   loading=None):
    """Write report.json and profile.json, then the requested curve files,
    loading ``profile`` for them unless ``loading`` is given."""
    _write_json(out / "report.json", doc)
    _write_json(out / "profile.json", _profile_dict(profile))
    if dump_curves or emit_plot_data:
        if loading is None:
            loading = network_load(scenario.network, profile, dt=scenario.solver["dt"])
        if dump_curves:
            _dump_curves(loading, out)
        if emit_plot_data:
            _emit_plot_data(loading, out)


@_command
def validate(scenario, out, dump_curves, emit_plot_data):
    """Check structural assumptions and report solver bounds."""
    try:
        bounds = compute_bounds(scenario.network)
        bounds_info = {
            "t_max": bounds.t_max, "t0": bounds.t0, "kappa": bounds.kappa,
            "horizon": bounds.horizon, "delta_min": bounds.delta_min,
        }
        window = (-bounds.t0, bounds.t0)
    except KinwaveError as e:
        bounds_info = {"error": str(e)}
        window = (-1.0, 1.0)
    report = validate_assumptions(scenario.network, window)
    doc = {
        "assumptions": report.as_dict(),
        "bounds": bounds_info,
        "paths": ["->".join(p.nodes) for p in scenario.network.paths],
    }
    _write_json(out / "report.json", doc)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if report.passed and "error" not in bounds_info else 1


@_command
def load(scenario, out, dump_curves, emit_plot_data):
    """Run network loading on the scenario's embedded departure profile."""
    if scenario.profile is None:
        raise ScenarioError("load requires a 'profile' section in the scenario")
    loading = network_load(scenario.network, scenario.profile, dt=scenario.solver["dt"])
    J = total_cost(scenario.network, scenario.profile, loading=loading)
    doc = {
        "total_cost": J,
        "end_time": loading.end_time,
        "windows": loading.windows,
        "arrival_totals": [
            loading.arrival_total(k) for k in range(len(scenario.network.groups))
        ],
    }
    _write_results(scenario, out, doc, scenario.profile, dump_curves, emit_plot_data,
                   loading)
    click.echo(f"total_cost {J:.12g}")
    return 0


@_command
def opt(scenario, out, dump_curves, emit_plot_data):
    """Search for a departure pattern minimizing the aggregate cost."""
    cfg = scenario.solver
    profile, J = solve_global(
        scenario.network, bins=cfg["bins"], tol=cfg["tol"],
        max_iter=cfg["max_iter"], restarts=cfg["restarts"], dt=cfg["dt"],
        seed=cfg["seed"],
    )
    converged = cfg["max_iter"] > 0
    doc = {"total_cost": J, "converged": converged, "solver": cfg}
    _write_results(scenario, out, doc, profile, dump_curves, emit_plot_data)
    click.echo(f"total_cost {J:.12g}")
    return 0 if converged else 1


@_command
def nash(scenario, out, dump_curves, emit_plot_data):
    """Search for a Nash-equilibrium departure pattern."""
    cfg = scenario.solver
    profile, report = solve_nash(
        scenario.network, bins=cfg["bins"], tol=cfg["tol"],
        max_iter=cfg["max_iter"], damping=cfg["damping"], dt=cfg["dt"],
    )
    loading = network_load(scenario.network, profile, dt=cfg["dt"])
    J = total_cost(scenario.network, profile, loading=loading)
    doc = {"equilibrium": report.as_dict(), "total_cost": J, "solver": cfg}
    _write_results(scenario, out, doc, profile, dump_curves, emit_plot_data, loading)
    click.echo(f"gap {report.gap:.12g} total_cost {J:.12g}")
    return 0 if report.converged else 1


if __name__ == "__main__":
    main()

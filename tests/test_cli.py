"""Scenario parsing and command dispatch through the click entry point."""
import copy
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinwave import (CostFunction, DomainError, FluxDescriptor, KinwaveError, ScenarioError,
                     cli, curves, network_load)
from kinwave.cli import main, parse_scenario

from helpers import ascent_vertex
from oracles import reference_csv_rows


def write_scenario(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def minimal_doc(**over):
    doc = {
        "format": 1,
        "nodes": ["a", "b"],
        "arcs": [{"from": "a", "to": "b", "length": 1.0,
                  "flux": {"kind": "triangular", "v_free": 1.0, "w_back": 1.0,
                           "rho_jam": 1.0}}],
        "groups": [{"size": 0.1, "origin": "a", "destination": "b",
                    "departure_cost": {"kind": "affine", "a": 0.0, "b": -1.0},
                    "arrival_cost": {"kind": "vickrey", "target": 1.0,
                                     "early_rate": 0.2, "late_rate": 0.4,
                                     "smoothing": 0.25}}],
    }
    doc.update(over)
    return doc


class TestParseScenario:
    def test_minimal(self, tmp_path):
        sc = parse_scenario(write_scenario(tmp_path / "s.json", minimal_doc()))
        assert len(sc.network.arcs) == 1
        assert len(sc.network.groups) == 1
        assert sc.solver["bins"] == 64
        assert sc.profile is None

    def test_mixed_flux_capacities(self, tmp_path):
        doc = minimal_doc()
        doc["nodes"] = ["a", "b", "c"]
        doc["arcs"] = [
            {"from": "a", "to": "b", "length": 1.0,
             "flux": {"kind": "greenshields", "v_free": 1.0, "rho_jam": 1.0}},
            {"from": "b", "to": "c", "length": 1.0,
             "flux": {"kind": "triangular", "v_free": 1.0, "w_back": 1.0,
                      "rho_jam": 0.5}},
        ]
        doc["groups"][0]["destination"] = "c"
        sc = parse_scenario(write_scenario(tmp_path / "s.json", doc))
        assert sc.network.arcs[0].flux.f_max == pytest.approx(0.25)
        assert sc.network.arcs[1].flux.f_max == pytest.approx(0.25)

    def test_unknown_node_named(self, tmp_path):
        doc = minimal_doc()
        doc["arcs"][0]["to"] = "Z"
        with pytest.raises(ScenarioError, match="'Z'"):
            parse_scenario(write_scenario(tmp_path / "s.json", doc))

    def test_unknown_key_named(self, tmp_path):
        doc = minimal_doc(extra=1)
        with pytest.raises(ScenarioError, match="'extra'"):
            parse_scenario(write_scenario(tmp_path / "s.json", doc))

    def test_unknown_solver_key(self, tmp_path):
        doc = minimal_doc(solver={"stepsize": 0.1})
        with pytest.raises(ScenarioError, match="'stepsize'"):
            parse_scenario(write_scenario(tmp_path / "s.json", doc))

    def test_bad_format_version(self, tmp_path):
        with pytest.raises(ScenarioError, match="format"):
            parse_scenario(write_scenario(tmp_path / "s.json", minimal_doc(format=2)))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(str(p))

    def test_profile_section(self, tmp_path):
        doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0,
                                   "rates": [[[0.1]]]})
        sc = parse_scenario(write_scenario(tmp_path / "s.json", doc))
        assert sc.profile.n_bins == 1
        assert sc.profile.group_masses()[0] == pytest.approx(0.1)

    def test_kinds_parse_to_library_objects(self, tmp_path):
        doc = minimal_doc()
        del doc["groups"][0]["arrival_cost"]["smoothing"]
        sc = parse_scenario(write_scenario(tmp_path / "s.json", doc))
        g = sc.network.groups[0]
        assert g.departure_cost.params == CostFunction.affine(0.0, -1.0).params
        assert g.arrival_cost.params == CostFunction.vickrey(1.0, 0.2, 0.4).params
        assert sc.network.arcs[0].flux.params == FluxDescriptor.triangular(1.0, 1.0, 1.0).params

    def test_solver_section_overrides_defaults(self, tmp_path):
        doc = minimal_doc(solver={"bins": 8.0, "dt": 1, "seed": 2**60 + 1})
        solver = parse_scenario(write_scenario(tmp_path / "s.json", doc)).solver
        assert solver["bins"] == 8 and type(solver["bins"]) is int
        assert solver["dt"] == 1.0 and type(solver["dt"]) is float
        assert solver["seed"] == 2**60 + 1
        assert solver["tol"] == 1e-3

    def test_profile_mass_mismatch(self, tmp_path):
        doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0,
                                   "rates": [[[0.3]]]})
        with pytest.raises(ScenarioError, match="mass"):
            parse_scenario(write_scenario(tmp_path / "s.json", doc))


class TestCommands:
    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def check_assumptions(self, out, passed):
        """report.json's ``assumptions``: the items, each with exactly a name,
        a verdict and a detail, and ``passed``, their conjunction."""
        assumptions = json.loads((out / "report.json").read_text())["assumptions"]
        assert set(assumptions) == {"passed", "items"}
        assert [set(item) for item in assumptions["items"]] == [{"name", "passed", "detail"}] * 3
        assert assumptions["passed"] is all(i["passed"] for i in assumptions["items"]) is passed

    def test_validate_ok(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", minimal_doc())
        res = self.run("validate", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["assumptions"]["passed"] is True
        assert report["bounds"]["kappa"] > 0
        self.check_assumptions(tmp_path / "o", True)

    def test_validate_failing_assumptions(self, tmp_path):
        doc = minimal_doc()
        doc["groups"][0]["departure_cost"] = {"kind": "affine", "a": 0.0, "b": 1.0}
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("validate", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 1
        self.check_assumptions(tmp_path / "o", False)

    def test_load_zero_profile(self, tmp_path):
        doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0,
                                   "rates": [[[0.0]]]})
        doc["groups"][0]["size"] = 0.0
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("load", "--scenario", path, "--out", str(tmp_path / "o"),
                       "--dump-curves")
        assert res.exit_code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["total_cost"] == 0.0
        for csv in (tmp_path / "o" / "curves").glob("arrivals_*.csv"):
            rows = csv.read_text().strip().splitlines()[1:]
            assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_load_requires_profile(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", minimal_doc())
        res = self.run("load", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 2

    def test_load_reports_cost(self, tmp_path):
        doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0,
                                   "rates": [[[0.1]]]})
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("load", "--scenario", path, "--out", str(tmp_path / "o"),
                       "--emit-plot-data", "--dump-curves")
        assert res.exit_code == 0
        assert "total_cost" in res.output
        # the plot data repeats each dumped curve's rows, prefixed by its series
        plot = (tmp_path / "o" / "plot_data.csv").read_text().splitlines()
        for series in ("arc_a_b_entry", "arc_a_b_exit", "arrivals_g0_p0"):
            dumped = (tmp_path / "o" / "curves" / f"{series}.csv").read_text().splitlines()[1:]
            assert [r[len(series) + 1:] for r in plot if r.startswith(series + ",")] == dumped

    def test_dumped_files_match_their_curves(self, tmp_path):
        # node ids with % and braces reach the row formatter as prefixes; on
        # a chain one curve object backs several files, formatted once
        doc = minimal_doc(nodes=["o%s", "m%%", "d{}"],
                          profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1, 0.3]]]})
        tri = doc["arcs"][0]["flux"]
        doc["arcs"] = [{"from": "o%s", "to": "m%%", "length": 1.0, "flux": tri},
                       {"from": "m%%", "to": "d{}", "length": 0.5, "flux": tri}]
        doc["groups"][0].update(size=0.4, origin="o%s", destination="d{}")
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("load", "--scenario", path, "--out", str(tmp_path / "o"),
                       "--emit-plot-data", "--dump-curves")
        assert res.exit_code == 0
        scenario = parse_scenario(path)
        loading = network_load(scenario.network, scenario.profile)
        want, plot = {}, ["series,t,value\n"]
        for (a, b), comp in sorted(loading.arc_flows.items()):
            for name, curve in (("entry", comp.entry), ("exit", comp.exit)):
                want[f"arc_{a}_{b}_{name}.csv"] = curve
                plot.append(reference_csv_rows(curve, f"arc_{a}_{b}_{name},"))
        for (k, p), record in sorted(loading.curves.items()):
            for h, arc in enumerate(scenario.network.paths[p].arcs[:len(record) - 1]):
                a, b = arc.key
                want[f"comp_g{k}_p{p}_{a}_{b}_entry.csv"] = record[h]
                want[f"comp_g{k}_p{p}_{a}_{b}_exit.csv"] = record[h + 1]
            want[f"arrivals_g{k}_p{p}.csv"] = record[-1]
            plot.append(reference_csv_rows(record[-1], f"arrivals_g{k}_p{p},"))
        shared = len(want) - len({id(c) for c in want.values()})
        assert shared >= 2
        cdir = tmp_path / "o" / "curves"
        assert sorted(p.name for p in cdir.iterdir()) == sorted(want)
        for name, curve in want.items():
            assert (cdir / name).read_text(encoding="utf-8") == "t,value\n" + reference_csv_rows(curve)
        assert (tmp_path / "o" / "plot_data.csv").read_text(encoding="utf-8") == "".join(plot)

    def test_opt_zero_iterations_writes_best(self, tmp_path):
        doc = minimal_doc(solver={"bins": 4, "max_iter": 0, "restarts": 1})
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("opt", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 1
        assert (tmp_path / "o" / "profile.json").exists()
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["stop_reason"] == "max_iter" and report["gap"] is None
        assert report["converged"] is False

    def test_opt_out_of_iterations_exits_1_with_its_best(self, tmp_path):
        # one gap measured, above tol, and one step: the step's profile is
        # written, unchecked, and opt does not claim convergence
        doc = minimal_doc(solver={"bins": 4, "max_iter": 1, "restarts": 1, "tol": 1e-9})
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("opt", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 1
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["stop_reason"] == "max_iter" and report["converged"] is False
        assert report["gap"] > 1e-9
        doc["profile"] = json.loads((tmp_path / "o" / "profile.json").read_text())
        res = self.run("load", "--scenario", write_scenario(tmp_path / "l.json", doc),
                       "--out", str(tmp_path / "load"))
        assert res.exit_code == 0
        assert json.loads((tmp_path / "load" / "report.json").read_text())["total_cost"] \
            == report["total_cost"]
        doc["solver"]["max_iter"] = 0
        res = self.run("opt", "--scenario", write_scenario(tmp_path / "s0.json", doc),
                       "--out", str(tmp_path / "o0"))
        start = json.loads((tmp_path / "o0" / "report.json").read_text())["total_cost"]
        assert report["total_cost"] < start

    def test_opt_without_a_lowering_step_exits_1_with_its_start(self, tmp_path, monkeypatch):
        # no step toward an ascent vertex lowers J: opt stops on no_decrease
        # and writes the best profile it has, its start, as max_iter 0 does
        def opt(max_iter):
            doc = minimal_doc(solver={"bins": 4, "max_iter": max_iter, "restarts": 1,
                                      "tol": 1e-9})
            out = tmp_path / f"o{max_iter}"
            res = self.run("opt", "--scenario",
                           write_scenario(tmp_path / f"s{max_iter}.json", doc), "--out", str(out))
            return res.exit_code, json.loads((out / "report.json").read_text()), \
                (out / "profile.json").read_bytes()

        _, start, start_profile = opt(0)
        ascent_vertex(monkeypatch)
        code, report, profile = opt(5)
        assert code == 1
        assert report["stop_reason"] == "no_decrease" and report["converged"] is False
        assert report["gap"] > 1e-9
        assert (report["total_cost"], profile) == (start["total_cost"], start_profile)

    def test_opt_curves_match_load_of_its_profile(self, tmp_path):
        # opt writes its curve files from the loading of its best profile;
        # they and its total_cost must be load's on the profile.json it
        # writes.  Path o->a->m->d is shorter, but o->a lets a bin take only
        # 0.5 G, so the optimum sends the rest on o->b->m->d
        tri = minimal_doc()["arcs"][0]["flux"]
        low = dict(tri, rho_jam=0.05)
        doc = minimal_doc(
            nodes=["o", "a", "b", "m", "d"],
            arcs=[{"from": a, "to": b, "length": L, "flux": flux}
                  for a, b, L, flux in (("o", "a", 0.3, low), ("a", "m", 0.3, tri),
                                        ("o", "b", 0.4, tri), ("b", "m", 0.7, tri),
                                        ("m", "d", 0.5, tri))],
            solver={"bins": 32, "max_iter": 20, "restarts": 1, "seed": 1})
        doc["groups"][0].update(size=0.4, origin="o", destination="d")
        flags = ["--dump-curves", "--emit-plot-data"]
        res = self.run("opt", "--scenario", write_scenario(tmp_path / "s.json", doc),
                       "--out", str(tmp_path / "opt"), *flags)
        assert res.exit_code == 0, res.output
        doc["profile"] = json.loads((tmp_path / "opt" / "profile.json").read_text())
        rates = doc["profile"]["rates"][0]
        assert len(rates) == 2 and all(any(r) for r in rates)     # both paths used
        res = self.run("load", "--scenario", write_scenario(tmp_path / "l.json", doc),
                       "--out", str(tmp_path / "load"), *flags)
        assert res.exit_code == 0, res.output
        opt_dir, load_dir = tmp_path / "opt", tmp_path / "load"
        names = sorted(p.name for p in (opt_dir / "curves").iterdir())
        assert names == sorted(p.name for p in (load_dir / "curves").iterdir())
        assert any(n.startswith("comp_g0_p1_m_d") for n in names)
        for name in names:
            assert (opt_dir / "curves" / name).read_bytes() == \
                (load_dir / "curves" / name).read_bytes(), name
        assert (opt_dir / "plot_data.csv").read_bytes() == \
            (load_dir / "plot_data.csv").read_bytes()
        assert json.loads((opt_dir / "report.json").read_text())["total_cost"] == \
            json.loads((load_dir / "report.json").read_text())["total_cost"]

    def test_error_exit_code(self, tmp_path):
        doc = minimal_doc()
        doc["arcs"][0]["to"] = "Z"
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("validate", "--scenario", path, "--out", str(tmp_path / "o"))
        assert res.exit_code == 2
        assert "'Z'" in res.output

    def test_bad_flag_values(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", minimal_doc())
        res = self.run("nash", "--scenario", path, "--bins", "-3",
                       "--out", str(tmp_path / "o"))
        assert res.exit_code == 2

    def test_each_command_takes_only_the_options_it_reads(self, tmp_path):
        curves = ["dump_curves", "emit_plot_data"]
        want = {"validate": [], "load": curves, "nash": ["bins", "tol", *curves],
                "opt": ["bins", "tol", "seed", *curves]}
        for command, names in want.items():
            params = [p.name for p in main.commands[command].params]
            assert params == ["scenario_path", "out_dir", *names], command
        # an option a command does not read is a usage error, not a checked value
        doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})
        path = write_scenario(tmp_path / "s.json", doc)
        res = self.run("load", "--scenario", path, "--bins", "8", "--out", str(tmp_path / "o"))
        assert res.exit_code == 2
        assert "No such option" in res.output and "--bins" in res.output
        assert not (tmp_path / "o" / "report.json").exists()


class TestNashRoundTrip:
    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_nash_then_load_reproduces_cost(self, tmp_path):
        doc = minimal_doc()
        doc["groups"][0]["size"] = 0.01
        doc["arcs"][0]["flux"] = {"kind": "triangular", "v_free": 1.0,
                                  "w_back": 1.0, "rho_jam": 2.0}
        doc["solver"] = {"bins": 128, "tol": 0.008, "max_iter": 600}
        path = write_scenario(tmp_path / "s.json", doc)
        out1 = tmp_path / "nash"
        res = self.run("nash", "--scenario", path, "--out", str(out1))
        assert res.exit_code == 0, res.output
        report = json.loads((out1 / "report.json").read_text())
        prof = json.loads((out1 / "profile.json").read_text())
        assert report["equilibrium"]["gap"] <= 0.008

        doc2 = minimal_doc(profile=prof)
        doc2["groups"][0]["size"] = float(
            np.sum(prof["rates"]) * prof["bin_width"]
        )
        doc2["arcs"][0]["flux"] = doc["arcs"][0]["flux"]
        path2 = write_scenario(tmp_path / "s2.json", doc2)
        out2 = tmp_path / "reload"
        res2 = self.run("load", "--scenario", path2, "--out", str(out2))
        assert res2.exit_code == 0, res2.output
        reload_report = json.loads((out2 / "report.json").read_text())
        assert reload_report["total_cost"] == pytest.approx(
            report["total_cost"], abs=1e-9
        )


def _certificate_doc(name):
    """Criterion 6's free-flow arc or symmetric diamond as a scenario."""
    doc = minimal_doc()
    if name == "free_flow":
        doc["arcs"][0]["flux"]["rho_jam"] = 2.0
        doc["groups"][0]["size"] = 0.03
    else:
        doc["nodes"] = ["1", "2", "3", "4"]
        doc["arcs"] = [dict(doc["arcs"][0], **{"from": a, "to": b})
                       for a, b in (("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"))]
        doc["groups"][0].update(size=1.5, origin="1", destination="4")
    return doc


@pytest.mark.parametrize("name", ["free_flow", "diamond"])
@pytest.mark.parametrize("bins", [4, 8, 16])
def test_nash_on_grids_too_coarse_for_tol_keeps_mass(tmp_path, name, bins):
    # the gap cannot reach tol on these grids and the costs barely move, so
    # the step grows until its bound; unbounded, it passed 4e14 by load 96,
    # the swap lost the group's mass and nash exited 2
    doc = _certificate_doc(name)
    doc["solver"] = {"bins": bins, "tol": 1e-3, "max_iter": 200}
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, ["nash", "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code in (0, 1), res.output
    eq = json.loads((tmp_path / "o" / "report.json").read_text())["equilibrium"]
    assert np.isfinite(eq["step"]) and eq["step"] <= 1.0 / 1e-3
    prof = json.loads((tmp_path / "o" / "profile.json").read_text())
    mass = np.sum(prof["rates"]) * prof["bin_width"]
    assert mass == pytest.approx(doc["groups"][0]["size"], rel=1e-9, abs=0.0)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _drop(*path):
    *path, key = path

    def edit(doc):
        for step in path:
            doc = doc[step]
        del doc[key]
    return edit


NAN, INF = float("nan"), float("inf")
FAULTY_DOCS = {
    "nan-length": (_set("arcs", 0, "length", NAN), "arcs[0].length"),
    "inf-v-free": (_set("arcs", 0, "flux", "v_free", INF), "arcs[0].flux.v_free"),
    "nan-size": (_set("groups", 0, "size", NAN), "groups[0].size"),
    "inf-size": (_set("groups", 0, "size", INF), "groups[0].size"),
    "huge-int-length": (_set("arcs", 0, "length", 10**400), "arcs[0].length"),
    "groups-not-list": (_set("groups", 3), "scenario.groups"),
    "arcs-not-list": (_set("arcs", "x"), "scenario.arcs"),
    "node-not-string": (_set("arcs", 0, "from", ["a"]), "arcs[0].from"),
    "nan-max-iter": (_set("solver", {"max_iter": NAN}), "solver.max_iter"),
    "inf-bins": (_set("solver", {"bins": INF}), "solver.bins"),
    "fractional-bins": (_set("solver", {"bins": 2.5}), "solver.bins"),
    "nan-profile-rate": (_set("profile", {"start": 0.0, "bin_width": 1.0,
                                          "rates": [[[NAN]]]}), "profile.rates"),
    "huge-int-profile-rate": (_set("profile", {"start": 0.0, "bin_width": 1.0,
                                               "rates": [[[10**400]]]}), "profile.rates"),
    "vickrey-no-late-rate": (_drop("groups", 0, "arrival_cost", "late_rate"),
                             "groups[0].arrival_cost: vickrey cost: missing parameter "
                             "'late_rate'"),
    "flux-unknown-key": (_set("arcs", 0, "flux", "junk", 3),
                         "arcs[0].flux: triangular flux: unknown parameter 'junk'"),
    "cost-unknown-kind": (_set("groups", 0, "departure_cost", "kind", ["affine"]),
                          "groups[0].departure_cost: unknown cost kind"),
    "huge-bins": (_set("solver", {"bins": 10**12}), "solver.bins: must be at most"),
    "one-bin": (_set("solver", {"bins": 1}), "solver.bins: must be at least 2"),
    # a free-flow pace of 1 / 1e-320 overflows to inf
    "flux-infinite-pace": (_set("arcs", 0, "flux", "v_free", 1e-320),
                           "arcs[0].flux: triangular flux needs 0 < rho_star < rho_jam"),
}


@pytest.mark.parametrize("command", ["validate", "nash"])
@pytest.mark.parametrize("case", sorted(FAULTY_DOCS))
def test_faulty_scenario_exits_2_with_location(tmp_path, command, case):
    edit, where = FAULTY_DOCS[case]
    doc = minimal_doc()
    edit(doc)
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, [command, "--scenario", path,
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert where in res.output
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command", ["load", "validate", "nash", "opt"])
def test_negative_profile_rate_exits_2_naming_the_profile(tmp_path, command):
    # a rate just below zero leaves the group's mass within tolerance; the
    # profile's own sign check must stop it, before any command runs
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1, -1e-12]]]})
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, [command, "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "error: profile: departure rates must be nonnegative" in res.output
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("command", ["load", "validate", "nash", "opt"])
def test_tiny_rate_on_nonconnecting_path_exits_2_naming_the_profile(tmp_path, command):
    # a->b->c with groups a->b and b->c: paths a->b (0) and b->c (1); 5e-10 on
    # group 0's path 1 leaves its mass within tolerance, and a load would drop it
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0,
                               "rates": [[[0.1, 0.0], [0.0, 5e-10]], [[0.0, 0.0], [0.1, 0.0]]]})
    doc["nodes"] = ["a", "b", "c"]
    doc["arcs"].append(dict(doc["arcs"][0], **{"from": "b", "to": "c"}))
    doc["groups"].append(dict(doc["groups"][0], origin="b", destination="c"))
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, [command, "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "error: profile: group 0 assigns flow to non-connecting path 1" in res.output
    assert not (tmp_path / "o" / "report.json").exists()


def test_negative_zero_profile_rate_loads(tmp_path):
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1, -0.0]]]})
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, ["load", "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command, flag, value, message", [
    ("opt", "--seed", "-1", "--seed: must be a nonnegative integer"),
    ("nash", "--tol", "inf", "--tol: expected a finite number"),
    ("opt", "--tol", "nan", "--tol: expected a finite number"),
    ("nash", "--bins", str(10**12), "--bins: must be at most"),
    ("nash", "--bins", "0", "--bins: must be positive"),
    ("opt", "--bins", "1", "--bins: must be at least 2"),
])
def test_bad_flag_exits_2_with_flag_named(tmp_path, command, flag, value, message):
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, [command, "--scenario", path, flag, value,
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert message in res.output
    assert not (tmp_path / "o" / "report.json").exists()


def test_no_command_reaches_the_grid_reference(tmp_path, monkeypatch):
    # a Greenshields exit goes through its table; the grid evaluation is a
    # test reference only
    def forbidden(*args):
        raise AssertionError("the grid reference was called")

    monkeypatch.setattr(curves, "_grid_minplus", forbidden)
    monkeypatch.setattr(curves, "_monge_row_minima", forbidden)
    doc = minimal_doc(solver={"bins": 4, "max_iter": 3, "restarts": 1},
                      profile={"start": 0.0, "bin_width": 0.5, "rates": [[[0.1, 0.1]]]})
    doc["arcs"][0]["flux"] = {"kind": "greenshields", "v_free": 1.0, "rho_jam": 1.0}
    path = write_scenario(tmp_path / "s.json", doc)
    for command in ("load", "nash", "opt"):
        res = CliRunner().invoke(main, [command, "--scenario", path, "--dump-curves",
                                        "--out", str(tmp_path / command)])
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code in (0, 1), res.output
        assert (tmp_path / command / "curves" / "arc_a_b_exit.csv").exists()


@pytest.mark.parametrize("command", ["validate", "load", "nash", "opt"])
def test_dt_past_the_knot_cap_exits_2(tmp_path, command):
    # dt 1e-12 would need a Greenshields exit table of about 1.6e6 knots
    doc = minimal_doc(solver={"dt": 1e-12},
                      profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})
    doc["arcs"][0]["flux"] = {"kind": "greenshields", "v_free": 1.0, "rho_jam": 1.0}
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, [command, "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "error: solver.dt: dt 1e-12 needs more than 1024 Greenshields table knots" \
        in res.output
    assert not (tmp_path / "o" / "report.json").exists()


# free-flow time 2.5e300 (w_back matches v_free, so rho_star = rho_jam / 2 stays
# clear of rho_jam): the 0.1 vehicles arrive by 2e302
SLOW_ARC = {"length": 2.5,
            "flux": {"kind": "triangular", "v_free": 1e-300, "w_back": 1e-300, "rho_jam": 1e-3}}


@pytest.mark.parametrize("arc, arrival_cost, message", [
    # a late rate of 1e10 takes the total cost of SLOW_ARC's arrivals past the float range
    (SLOW_ARC, {"late_rate": 1e10}, "error: scenario: report.json: Out of range float"),
    # free-flow time 1e-300: the sweep bound overflows, and the capacity 2.5e-300
    # drains the 0.1 vehicles at 4e298, where the total cost overflows to inf
    ({"length": 1e-300,
      "flux": {"kind": "triangular", "v_free": 1.0, "w_back": 1e-300, "rho_jam": 2.5}},
     {}, "error: scenario: report.json: Out of range float"),
], ids=["cost-overflow", "sweep-bound-overflow"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_load_at_extreme_scales_exits_2(tmp_path, arc, arrival_cost, message):
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})
    doc["arcs"][0].update(arc)
    doc["groups"][0]["arrival_cost"].update(arrival_cost)
    path = write_scenario(tmp_path / "s.json", doc)
    res = CliRunner().invoke(main, ["load", "--scenario", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert message in res.output
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("edits", [
    # a travel time near 1e300 overflows the Vickrey penalty's square
    [("groups", 0, "size", 1e300)],
    [("arcs", 0, "flux", "w_back", 1e-300)],
    # and a quadratic arrival cost's
    [("groups", 0, "size", 1e300),
     ("groups", 0, "arrival_cost", {"kind": "quadratic", "a": 0.0, "b": 0.0, "c": 1.0})],
    # a zero rate times the Vickrey ramp, once the root under it overflowed,
    # read NaN: from the square of the smoothing, or of the distance to the target
    [("groups", 0, "arrival_cost", "smoothing", 1e300),
     ("groups", 0, "arrival_cost", "early_rate", 0.0)],
    [("groups", 0, "arrival_cost", "target", 1e300),
     ("groups", 0, "arrival_cost", "late_rate", 0.0)],
], ids=["vickrey-size-1e300", "w-back-1e-300", "quadratic-size-1e300",
        "vickrey-smoothing-1e300-early-0", "vickrey-target-1e300-late-0"])
def test_overflowing_costs_warn_nothing(tmp_path, edits):
    doc = minimal_doc()
    for *where, value in edits:
        _set(*where, value)(doc)
    path = write_scenario(tmp_path / "s.json", doc)
    for command, code in (("validate", 1), ("nash", 2), ("opt", 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CliRunner().invoke(main, [command, "--scenario", path,
                                            "--out", str(tmp_path / command)])
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == code, res.output
        assert "Traceback" not in res.output


@pytest.mark.parametrize("edits, codes", [
    # no group: the solver bounds took a max over no paths
    ([("groups", [])], (2, 2, 2, 2)),
    # a profile of no bins: the loader found its first live bin by an argmax over none
    ([("groups", 0, "size", 0.0),
      ("profile", {"start": 0.0, "bin_width": 1.0, "rates": [[[]]]})], (2, 2, 2, 2)),
    # simplify's drop bound overflowed on the exit of 1e300 vehicles before the
    # infinite cost exited 2; validate reports its bounds' failure and exits 1
    ([("groups", 0, "size", 1e300),
      ("profile", {"start": 0.0, "bin_width": 1.0, "rates": [[[1e300]]]})], (1, 2, 2, 2)),
    # a Vickrey cost with both rates 0 far from its target took 0 * inf in its
    # mean; the combined cost -t + t is flat, so only load has a result
    ([("groups", 0, "arrival_cost", "target", 1e300),
      ("groups", 0, "arrival_cost", "early_rate", 0.0),
      ("groups", 0, "arrival_cost", "late_rate", 0.0),
      ("profile", {"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})], (1, 0, 2, 2)),
    # SLOW_ARC's arrivals by 2e302 cost 1.435e301, which the Vickrey mean read
    # inf; the solver bounds find the combined cost not growing at their horizon
    ([("arcs", 0, "length", SLOW_ARC["length"]), ("arcs", 0, "flux", SLOW_ARC["flux"]),
      ("profile", {"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})], (1, 0, 2, 2)),
], ids=["no-groups", "no-bins", "size-1e300-loaded", "vickrey-rates-0-target-1e300",
        "slow-arc-finite-cost"])
def test_degenerate_documents_exit_with_location(tmp_path, edits, codes):
    doc = minimal_doc()
    for *where, value in edits:
        _set(*where, value)(doc)
    path = write_scenario(tmp_path / "s.json", doc)
    for command, code in zip(("validate", "load", "nash", "opt"), codes):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CliRunner().invoke(main, [command, "--scenario", path, "--out", str(out)])
        # click reads an exit 0 as no exception
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == code, res.output
        assert "Traceback" not in res.output
        if code == 2:
            assert LOCATION.search(res.output), res.output
            assert not (out / "report.json").exists()


@pytest.mark.parametrize("cost", [NAN, INF])
def test_only_an_infinite_result_exits_2(tmp_path, monkeypatch, cost):
    # an infinity is an overflow at the scenario's extreme scales, an input
    # error; a NaN is a defect, and must not be reported as the scenario's
    monkeypatch.setattr(cli, "total_cost", lambda *args, **kwargs: cost)
    path = write_scenario(tmp_path / "s.json", minimal_doc(
        profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]}))
    res = CliRunner().invoke(main, ["load", "--scenario", path, "--out", str(tmp_path / "o")])
    if np.isnan(cost):
        assert isinstance(res.exception, ValueError), res.output
        assert not isinstance(res.exception, KinwaveError)
        assert str(res.exception) == "report.json: a result is NaN"
        assert "scenario:" not in res.output
    else:
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: scenario: report.json: Out of range float" in res.output
        with pytest.raises(DomainError):    # a string spelled NaN is no NaN
            cli._write_json(tmp_path / "r.json", {"paths": ["NaN->b"], "gap": [[0.0, cost]]})
    assert not (tmp_path / "o" / "report.json").exists()
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------
# Fuzzing the input boundary
# ---------------------------------------------------------------------

FUZZ_VALUES = [NAN, INF, -INF, 10**400, 0.0, 1e-300, 1e300, -1e300, -1, 2.5, "x", [1.0], None]
FUZZ_KINDS = sorted(FluxDescriptor.KINDS) + sorted(CostFunction.KINDS) + ["bogus"]
LOCATION = re.compile(r"error: (scenario|arcs\[\d+\]|groups\[\d+\]|solver|profile"
                      r"|--(bins|tol|seed))[.:]")


def _nodes(obj, path=()):
    """Every (path, value) below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, v in items:
        yield path + (key,), v
        yield from _nodes(v, path + (key,))


@st.composite
def fuzzed_docs(draw):
    doc = minimal_doc(profile={"start": 0.0, "bin_width": 1.0, "rates": [[[0.1]]]})
    if draw(st.booleans()):
        doc["arcs"][0]["flux"] = {"kind": "greenshields", "v_free": 1.0, "rho_jam": 1.0}
    for _ in range(draw(st.integers(0, 2))):
        path, value = draw(st.sampled_from(list(_nodes(doc))))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "add", "swap", "swap", "kind"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "add" and isinstance(value, dict):
            value["junk"] = 1.0
        elif action == "kind" and path[-1] == "kind":
            parent["kind"] = draw(st.sampled_from(FUZZ_KINDS))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    # the solver section stays small so that every run is short; its keys
    # go through the same check as the flags drawn below, which nash and opt read
    doc["solver"] = {"bins": draw(st.integers(2, 8)), "max_iter": draw(st.integers(0, 3))}
    return doc


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=fuzzed_docs(),
       bins=st.none() | st.integers(-1, 8) | st.just(10**12),
       tol=st.none() | st.sampled_from([NAN, INF, -1.0, 0.0, 1e-300, 1e-3, 1e3]),
       seed=st.none() | st.integers(-2, 3) | st.just(2**70))
def test_fuzzed_input_exits_cleanly(doc, bins, tol, seed):
    drawn = [(name, v) for name, v in (("--bins", bins), ("--tol", tol), ("--seed", seed))
             if v is not None]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp) / "s.json", doc)
        for command, takes in (("validate", ()), ("load", ()), ("nash", ("--bins", "--tol")),
                               ("opt", ("--bins", "--tol", "--seed"))):
            out = Path(tmp) / command
            flags = [arg for name, v in drawn if name in takes for arg in (name, repr(v))]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = CliRunner().invoke(main, [command, "--scenario", path, "--out", str(out),
                                                *flags])
            assert not caught, [str(w.message) for w in caught]
            assert res.exit_code in (0, 1, 2), res.output
            assert res.exception is None or isinstance(res.exception, SystemExit), \
                res.exception     # None is a clean exit 0
            assert "Traceback" not in res.output
            if res.exit_code == 2:
                assert LOCATION.search(res.output), res.output
            if (out / "report.json").exists():
                json.loads((out / "report.json").read_text(),
                           parse_constant=_reject_constant)

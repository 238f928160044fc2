"""End-to-end tests of the experiment runner."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cascadelab
from cascadelab.cli import (
    ConfigError,
    _q_grid,
    build_graph,
    build_parser,
    config_hash,
    load_config,
    main,
    write_csv,
)
from cascadelab.graph import Graph, generate_er, load_edge_list
from cascadelab.seeding import child_seed

from oracles import label_world

COMMENT_RE = re.compile(r"^# config_hash=[0-9a-f]{16} tool_version=\d")


def read_csv(path):
    lines = path.read_text().splitlines()
    assert COMMENT_RE.match(lines[0])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


class TestParseQFlag:
    """The sweep's `--q`, which takes a grid only."""

    def test_single(self):
        with pytest.raises(argparse.ArgumentTypeError, match="'0.3'"):
            _q_grid("0.3")

    def test_comma_list(self):
        assert _q_grid("0.1,0.2") == [0.1, 0.2]

    def test_grid(self):
        grid = _q_grid("0.05:0.9:3")
        assert grid == pytest.approx([0.05, 0.475, 0.9])

    def test_garbage(self):
        for text in ("zero point three", "0.1,x", "0.1:0.9", "0.1:0.9:2.5"):
            with pytest.raises(argparse.ArgumentTypeError, match=repr(text)):
                _q_grid(text)


class TestConfigHash:
    def base(self):
        return {
            "graph": {"kind": "er", "n": 50, "p": 0.1},
            "q": 0.3,
            "trials": 10,
            "seed": 1,
            "threads": 1,
            "out_dir": "out",
        }

    def test_ignores_execution_keys(self):
        a = self.base()
        b = self.base()
        b["threads"] = 8
        b["out_dir"] = "/somewhere/else"
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_experiment_keys(self):
        a = self.base()
        b = self.base()
        b["q"] = 0.4
        assert config_hash(a) != config_hash(b)

    def test_insensitive_to_key_order(self):
        a = self.base()
        b = dict(reversed(list(a.items())))
        assert config_hash(a) == config_hash(b)


class TestLoadConfig:
    def test_defaults_applied(self, tmp_path):
        path = write_config(tmp_path, graph={"kind": "er", "n": 10, "p": 0.1})
        cfg = load_config(path, {})
        assert cfg["q"] == 0.3
        assert cfg["trials"] == 1000
        assert cfg["thresholds"] == [0.99, 0.95, 0.90, 0.75, 0.50]

    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(
            tmp_path, graph={"kind": "er", "n": 10, "p": 0.1}, trials=30
        )
        assert load_config(path, {})["trials"] == 30

    def test_flags_override_file(self, tmp_path):
        path = write_config(
            tmp_path, graph={"kind": "er", "n": 10, "p": 0.1}, trials=30
        )
        cfg = load_config(path, {"trials": 10, "seed": None})
        assert cfg["trials"] == 10
        assert cfg["seed"] == 42  # None override is ignored

    def test_missing_graph(self, tmp_path):
        path = write_config(tmp_path, q=0.3)
        with pytest.raises(ConfigError, match="graph"):
            load_config(path, {})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), {})

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path), {})


class TestBuildGraph:
    def test_er_source(self):
        name, g = build_graph({"kind": "er", "n": 30, "p": 0.2, "seed": 5}, 0)
        assert name == "er_n30_p0.2"
        assert g == generate_er(30, 0.2, rng_seed=5)

    def test_seed_defaults_to_master_stream(self):
        _, a = build_graph({"kind": "er", "n": 30, "p": 0.2}, 99)
        _, b = build_graph({"kind": "er", "n": 30, "p": 0.2}, 99)
        assert a == b

    def test_chung_lu_source(self):
        name, g = build_graph(
            {"kind": "chung_lu", "n": 40, "d": 3, "b": 1.5, "seed": 6}, 0
        )
        assert name == "chung_lu_n40_d3_b1.5"
        assert g.node_count == 40

    def test_edge_list_source(self, tmp_path):
        p = tmp_path / "mini.txt"
        p.write_text("0 1\n1 2\n")
        name, g = build_graph({"kind": "edge_list", "path": str(p)}, 0)
        assert name == "mini"
        assert g.edge_count == 2

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_graph({"kind": "barabasi"}, 0)

    def test_custom_name(self):
        name, _ = build_graph(
            {"kind": "er", "n": 10, "p": 0.1, "name": "pilot"}, 0
        )
        assert name == "pilot"

    @pytest.mark.parametrize(
        "source, message",
        [
            ({"kind": "er", "n": 10, "p": None}, "graph p must be a number"),
            ({"kind": "er", "n": 10, "p": math.nan}, "graph p must be finite"),
            ({"kind": "chung_lu", "n": 10, "d": math.inf, "b": 1}, "graph d must be finite"),
            ({"kind": "chung_lu", "n": 10, "d": 2, "b": [1]}, "graph b must be a number"),
            # a number given as a string would hash unlike the number
            ({"kind": "er", "n": 10, "p": "0.1"}, "graph p must be a number"),
            ({"kind": "er", "n": "10", "p": 0.1}, "graph n must be an integer"),
        ],
    )
    def test_bad_number_names_its_key(self, source, message):
        with pytest.raises(ConfigError, match=message):
            build_graph(source, 0)


class TestGen:
    def test_round_trip(self, tmp_path):
        config = write_config(
            tmp_path, graph={"kind": "er", "n": 40, "p": 0.15, "seed": 7}
        )
        out = tmp_path / "out"
        assert main(["gen", "--config", config, "--out", str(out)]) == 0
        dumped = load_edge_list(out / "graph.txt")
        assert dumped == generate_er(40, 0.15, rng_seed=7)


class TestComponents:
    def test_full_retention_zero_variance(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 60, "p": 0.05, "seed": 8},
            trials=20,
        )
        out = tmp_path / "out"
        rc = main(["components", "--config", config, "--out", str(out), "--q", "1"])
        assert rc == 0
        g = generate_er(60, 0.05, rng_seed=8)
        lab = label_world(g.node_count, g.edges)
        _, rows = read_csv(out / "components.csv")
        row = rows[0]
        assert float(row["mean_giant"]) == lab.giant_size
        assert float(row["mean_second"]) == lab.second_size
        assert float(row["std_giant"]) == 0.0
        assert int(row["trials"]) == 20

    def test_multiple_sources_one_row_each(self, tmp_path):
        config = write_config(
            tmp_path,
            graph=[
                {"kind": "er", "n": 30, "p": 0.1, "name": "a"},
                {"kind": "er", "n": 40, "p": 0.1, "name": "b"},
            ],
            trials=5,
        )
        out = tmp_path / "out"
        assert main(["components", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "components.csv")
        assert [r["network"] for r in rows] == ["a", "b"]
        assert [int(r["n"]) for r in rows] == [30, 40]

    def test_network_names_are_quoted(self, tmp_path):
        """A comma or a line break in a network name stays in its field."""
        p = tmp_path / "a,b.txt"
        p.write_text("0 1\n1 2\n")
        config = write_config(
            tmp_path,
            graph=[
                {"kind": "edge_list", "path": str(p)},
                {"kind": "er", "n": 30, "p": 0.1, "name": "x\ny"},
            ],
            trials=3,
        )
        out = tmp_path / "out"
        assert main(["components", "--config", config, "--out", str(out)]) == 0
        with open(out / "components.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == ["a,b", "x\ny"]

    def test_carriage_return_in_name_round_trips(self, tmp_path):
        """`csv.writer` with an LF terminator leaves a bare carriage return,
        which `csv.reader` refuses; the name must come back as one field."""
        config = write_config(
            tmp_path, graph={"kind": "er", "n": 30, "p": 0.1, "name": "x\rz"}, trials=3
        )
        out = tmp_path / "out"
        assert main(["components", "--config", config, "--out", str(out)]) == 0
        with open(out / "components.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [len(row) for row in rows] == [9, 9]
        assert rows[1][0] == "x\rz"


class TestWriteCsv:
    TEXT = ["plain", "a,b", 'say "hi"', "x\rz", "x\ny", "x\r\ny", "", " pad "]

    def test_text_fields_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "k"], [[t, k] for k, t in enumerate(self.TEXT)], 1)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert COMMENT_RE.match(rows[0][0])
        assert rows[1] == ["name", "k"]
        assert rows[2:] == [[t, str(k)] for k, t in enumerate(self.TEXT)]

    def test_same_bytes_as_csv_writer_without_carriage_returns(self, tmp_path):
        """Outside a carriage return, fields are quoted as `csv.writer` does."""
        rows = [[t, 3, np.int64(-4), 0.1, np.float64(2.5), True, np.bool_(False)]
                for t in self.TEXT if "\r" not in t]
        path = tmp_path / "t.csv"
        write_csv(path, list("abcdefg"), rows, 0)
        lines = path.read_text().split("\n", 1)[1]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list("abcdefg"))
        writer.writerows([t, "3", "-4", "0.1", "2.5", "1", "0"] for t, *_ in rows)
        assert lines == buf.getvalue()


class TestSweep:
    def test_degenerate_grid_is_exact(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 50, "p": 0.06, "seed": 9},
            q_grid=[1.0],
            sweep_trials=8,
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        g = generate_er(50, 0.06, rng_seed=9)
        lab = label_world(g.node_count, g.edges)
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["q"]) == 1.0
        assert float(rows[0]["mean_giant_frac"]) == lab.giant_size / 50
        assert float(rows[0]["mean_second_frac"]) == lab.second_size / 50

    def test_giant_grows_with_q(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 250, "p": 6 / 249, "seed": 10},
            sweep_trials=50,
        )
        out = tmp_path / "out"
        rc = main(
            ["sweep", "--config", config, "--out", str(out), "--q", "0.2:0.9:5"]
        )
        assert rc == 0
        _, rows = read_csv(out / "sweep.csv")
        fracs = [float(r["mean_giant_frac"]) for r in rows]
        assert len(fracs) == 5
        # non-decreasing up to two standard errors (SE <= 0.025 here)
        assert all(b - a >= -0.05 for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > fracs[0] + 0.2

    def test_unsorted_grid_rows_keep_config_order(self, tmp_path):
        graph = {"kind": "er", "n": 200, "p": 0.01, "seed": 12}
        rows = {}
        for label, grid in (("sorted", [0.2, 0.6]), ("unsorted", [0.6, 0.2, 0.6])):
            config = write_config(
                tmp_path, f"{label}.json", graph=graph, q_grid=grid, sweep_trials=6
            )
            out = tmp_path / label
            assert main(["sweep", "--config", config, "--out", str(out)]) == 0
            _, rows[label] = read_csv(out / "sweep.csv")
        low, high = rows["sorted"]
        assert [r["q"] for r in rows["unsorted"]] == ["0.6", "0.2", "0.6"]
        assert rows["unsorted"] == [high, low, high]

    def test_bad_grid_value_exits_before_graph_is_built(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            graph={"kind": "edge_list", "path": str(tmp_path / "missing.txt")},
            q_grid=[0.2, 0.6, 1.5],
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "q grid values must lie in (0, 1]" in capsys.readouterr().err


class TestMembership:
    def test_zero_threshold_catches_everyone(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 100, "p": 0.03, "seed": 11},
            trials=40,
            thresholds=[0.5, 0.0],
        )
        out = tmp_path / "out"
        assert main(["membership", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "membership.csv")
        by_thr = {float(r["threshold"]): r for r in rows}
        assert int(by_thr[0.0]["node_count"]) == 100
        assert float(by_thr[0.0]["node_fraction"]) == 1.0
        assert int(by_thr[0.5]["node_count"]) < 100


class TestAudit:
    def test_disjoint_edges_toy(self, tmp_path):
        edge_file = tmp_path / "toy.txt"
        edge_file.write_text("# nodes=4 edges=2\n0 1\n2 3\n")
        config = write_config(
            tmp_path,
            graph={"kind": "edge_list", "path": str(edge_file)},
            q=1.0,
            trials=50,
            protected=[0],
            mechanism={"kind": "laplace", "scale": 2.0},
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "audit.csv")
        metrics = {r["metric"]: r["value"] for r in rows}
        assert float(metrics["w_scale"]) == 0.0
        assert float(metrics["mean_abs_noise"]) == 0.0
        # the giant is never unambiguously seeded here, so the gap
        # diagnostics are reported as nan rather than failing the audit
        assert metrics["theta_gap"] == "nan"
        _, node_rows = read_csv(out / "audit_nodes.csv")
        assert node_rows[0]["node"] == "0"
        assert float(node_rows[0]["w_infinity"]) == 0.0

    def test_all_protected_degenerate_aborts(self, tmp_path):
        edge_file = tmp_path / "k2.txt"
        edge_file.write_text("0 1\n")
        config = write_config(
            tmp_path,
            graph={"kind": "edge_list", "path": str(edge_file)},
            q=1.0,
            trials=30,
            protected=[0, 1],
            mechanism={"kind": "laplace", "scale": 1.0},
        )
        rc = main(
            ["audit", "--config", config, "--out", str(tmp_path / "out")]
        )
        assert rc == 3

    def test_supercritical_audit_reports_gap(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 300, "p": 5 / 299, "seed": 12},
            q=0.4,
            trials=200,
            protected=[0, 1],
            epsilon=2.0,
            mechanism={"kind": "laplace", "scale": 5.0},
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "audit.csv")
        metrics = {r["metric"]: r["value"] for r in rows}
        assert float(metrics["theta_gap"]) > 0
        assert float(metrics["laplace_scale"]) == pytest.approx(
            float(metrics["w_scale"]) / 2.0
        )
        assert 0.0 <= float(metrics["comparison_test_error"]) <= 1.0

    def test_protected_all_equals_every_node_listed(self, tmp_path):
        """"all" audits every node from the one pass and writes the rows an
        explicit list of 0..n-1 writes; nodes that never (or always)
        activated are counted as degenerate instead of written."""
        n = 40
        bodies = {}
        for name, protected in (("all", "all"), ("listed", list(range(n)))):
            config = write_config(
                tmp_path,
                name=f"{name}.json",
                graph={"kind": "er", "n": n, "p": 0.05, "seed": 6},
                q=0.5,
                trials=40,
                seed=3,
                protected=protected,
                mechanism={"kind": "laplace", "scale": 5.0},
            )
            out = tmp_path / name
            assert main(["audit", "--config", config, "--out", str(out)]) == 0
            # line 1 carries the config hash, which differs between the two
            bodies[name] = [
                (out / f).read_text().splitlines()[1:]
                for f in ("audit.csv", "audit_nodes.csv")
            ]
        assert bodies["all"] == bodies["listed"]
        _, rows = read_csv(out / "audit.csv")
        degenerate = int({r["metric"]: r["value"] for r in rows}["degenerate_nodes"])
        _, node_rows = read_csv(out / "audit_nodes.csv")
        assert degenerate > 0
        assert len(node_rows) + degenerate == n

    def test_comparison_clamp_folds_noise_into_range(self, tmp_path):
        # noise scale far above n: clamping folds most mass onto 0 and n,
        # which changes how far apart the two released laws are
        tvds = {}
        for clamp in (False, True):
            config = write_config(
                tmp_path,
                name=f"clamp_{clamp}.json",
                graph={"kind": "er", "n": 300, "p": 5 / 299, "seed": 12},
                q=0.4,
                trials=200,
                protected=[0],
                mechanism={"kind": "laplace", "scale": 1000.0, "clamp": clamp},
            )
            out = tmp_path / f"out_{clamp}"
            assert main(["audit", "--config", config, "--out", str(out)]) == 0
            _, rows = read_csv(out / "audit.csv")
            tvds[clamp] = float(
                {r["metric"]: r["value"] for r in rows}["comparison_tvd"]
            )
        assert tvds[True] != tvds[False]

    @pytest.mark.parametrize("scale", [1e15, 1e17, 1e18, 1e300, 1.7e308])
    def test_huge_comparison_scale_is_bounded_by_the_shift(
        self, tmp_path, monkeypatch, scale
    ):
        """The comparison TVD costs the same at any finite scale, 1.7e308
        included, where twelve scales pass the largest float. Laplace noise
        at scale b moves a count by d at a TVD cost of at most d / (2 b), so
        the two pushed laws are within (largest - smallest count) / (2 b)."""
        samples, real = [], cascadelab.cli.comparison_tvd

        def comparison_tvd(x0, x1, spec, *, n=None):
            samples.append((int(x0[0]), int(x1[-1])))
            return real(x0, x1, spec, n=n)

        monkeypatch.setattr(cascadelab.cli, "comparison_tvd", comparison_tvd)
        config = write_config(
            tmp_path,
            **{**GOLDEN_CONFIG, "mechanism": {"kind": "laplace", "scale": scale}},
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "audit.csv")
        tvd = float({r["metric"]: r["value"] for r in rows}["comparison_tvd"])
        [(smallest, largest)] = samples
        assert 0.0 <= tvd <= (largest - smallest) / (2.0 * scale) + 1e-15

    def test_epsilon_that_overflows_the_laplace_scale_exits_2(self, tmp_path, capsys):
        """w_scale / 1e-320 is inf: a config error naming epsilon, not a
        laplace_scale of inf."""
        config = write_config(tmp_path, **{**GOLDEN_CONFIG, "epsilon": 1e-320})
        rc = main(["audit", "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: epsilon 1e-320 ")
        assert err.count("\n") == 1
        assert not any((tmp_path / "out").iterdir())


class TestAttack:
    def test_deterministic_world(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 60, "p": 0.2, "seed": 13},
            q=1.0,
            trials=30,
            floors=[0.99],
            decision_threshold=30.0,
            mechanism={"kind": "laplace", "scale": 1e-9},
        )
        out = tmp_path / "out"
        assert main(["attack", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "attack.csv")
        assert float(rows[0]["precision"]) == 1.0
        assert float(rows[0]["coverage"]) == 1.0
        _, summary = read_csv(out / "attack_summary.csv")
        metrics = {r["metric"]: r["value"] for r in summary}
        assert float(metrics["giant_status_accuracy"]) == 1.0
        assert metrics["theta_inactive_max"] == "nan"

    def test_degenerate_split_without_fixed_cut_aborts(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 60, "p": 0.2, "seed": 13},
            q=1.0,
            trials=30,
            floors=[0.99],
            mechanism={"kind": "laplace", "scale": 1e-9},
        )
        rc = main(
            ["attack", "--config", config, "--out", str(tmp_path / "out")]
        )
        assert rc == 3


class TestErrorPaths:
    def test_missing_graph_is_config_error(self, tmp_path):
        config = write_config(tmp_path, q=0.3)
        rc = main(
            ["components", "--config", config, "--out", str(tmp_path / "out")]
        )
        assert rc == 2

    def test_q_out_of_range(self, tmp_path):
        config = write_config(
            tmp_path, graph={"kind": "er", "n": 10, "p": 0.1}, trials=2
        )
        rc = main(
            [
                "components",
                "--config",
                config,
                "--out",
                str(tmp_path / "out"),
                "--q",
                "1.5",
            ]
        )
        assert rc == 2

    def test_oversized_canonical_header(self, tmp_path):
        edge_file = tmp_path / "huge.txt"
        edge_file.write_text("# nodes=99999999999999999999 edges=1\n0 1\n")
        config = write_config(
            tmp_path, graph={"kind": "edge_list", "path": str(edge_file)}
        )
        assert main(["gen", "--config", config, "--out", str(tmp_path / "out")]) == 2

    def test_broken_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        rc = main(
            ["membership", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "command, entries, flags",
        [
            ("membership", {}, ["--trials", "0"]),
            ("components", {}, ["--trials", "0"]),
            ("sweep", {"sweep_trials": 0}, []),
            ("attack", {"decision_threshold": 300.0}, []),
            ("attack", {"decision_threshold": 0.0}, []),
            ("attack", {"s": 301, "decision_threshold": 150.0}, []),
            ("audit", {"protected": [301]}, []),
            ("audit", {"protected": [-1]}, []),
            ("audit", {"s": 0}, []),
            (
                "audit",
                {"mechanism": {"kind": "randomized_response", "flip_prob": 0.3}},
                [],
            ),
            ("attack", {"floors": ["high"]}, []),
            ("membership", {"thresholds": ["x"]}, []),
            ("audit", {"epsilon": "one"}, []),
            ("attack", {"decision_threshold": "middle"}, []),
            ("sweep", {"q_grid": {"start": 0.1, "stop": 0.9, "count": 0}}, []),
            ("sweep", {}, ["--q", "0.1:0.9:0"]),
            ("attack", {"floors": 0.9}, []),
            ("membership", {"thresholds": 0.5}, []),
            ("attack", {"floors": []}, []),
            ("audit", {"protected": "every"}, []),
            ("audit", {"protected": "01"}, []),
            ("components", {"seed": "abc"}, []),
            (
                "gen",
                {"graph": {"kind": "er", "n": 300, "p": 5 / 299, "seed": "abc"}},
                [],
            ),
            (
                "gen",
                {
                    "graph": [
                        {"kind": "er", "n": 30, "p": 0.1},
                        {"kind": "er", "n": 40, "p": 0.1},
                    ]
                },
                [],
            ),
            ("sweep", {"seed": 1.5}, []),
            ("sweep", {"sweep_trials": 2.7}, []),
            ("components", {"trials": True}, []),
            ("sweep", {"q_grid": {"start": 0.1, "stop": 0.9, "count": 2.5}}, []),
            ("gen", {"graph": {"kind": "er", "n": 30.5, "p": 0.1}}, []),
            ("audit", {"protected": [0.5]}, []),
            ("sweep", {"q_grid": [0.2, 0.6, 1.5]}, []),
            (
                "sweep",
                {
                    "graph": [
                        {"kind": "er", "n": 30, "p": 0.1},
                        {"kind": "er", "n": 40, "p": 0.1},
                    ]
                },
                [],
            ),
            ("gen", {"graph": {"kind": "er", "n": 10, "p": None}}, []),
            ("gen", {"graph": {"kind": "er", "n": 10, "p": [0.1]}}, []),
            ("gen", {"graph": {"kind": "chung_lu", "n": 10, "d": None, "b": 1.5}}, []),
            ("gen", {"graph": {"kind": "chung_lu", "n": 10, "d": math.inf, "b": 1.5}}, []),
            ("gen", {"graph": {"kind": "chung_lu", "n": 10, "d": 2.0, "b": None}}, []),
            # the weights, or their sum, overflow
            ("gen", {"graph": {"kind": "chung_lu", "n": 1000, "d": 1e306, "b": 1.5}}, []),
            ("gen", {"graph": {"kind": "chung_lu", "n": 100, "d": 2, "b": 1e-3}}, []),
            ("gen", {"graph": {"kind": "er", "n": 10, "p": True}}, []),
            ("membership", {"q": True}, []),
            ("sweep", {"q_grid": {"start": True, "stop": 0.9, "count": 3}}, []),
            ("audit", {"mechanism": {"kind": "laplace", "scale": math.inf}}, []),
            ("audit", {"mechanism": {"kind": "laplace", "scale": math.nan}}, []),
            ("attack", {"mechanism": {"kind": "laplace", "scale": math.nan}}, []),
            # w_scale / epsilon overflows to inf
            ("audit", {"epsilon": 1e-320}, []),
            # the Laplace error quantile, scale * log(1000), overflows to inf
            ("attack", {"mechanism": {"kind": "laplace", "scale": 1e308}}, []),
            (
                "audit",
                {"mechanism": {"kind": "laplace", "scale": 5.0, "clamp": "no"}},
                [],
            ),
            ("gen", {"graph": {"kind": "edge_list", "path": 5}}, []),
            ("gen", {"graph": {"kind": "edge_list", "path": "."}}, []),
            ("gen", {"graph": {"kind": "edge_list", "path": "undecodable.txt"}}, []),
            ("gen", {"graph": {"kind": "edge_list", "path": "empty.txt"}}, []),
            ("gen", {"out_dir": 5}, []),
            ("gen", {}, ["--out", "{config}"]),
            (
                "components",
                {"graph": {"kind": "er", "n": 30, "p": 0.1, "name": ["x"]}},
                [],
            ),
            ("gen", {"threads": "abc"}, []),
            ("gen", {"threads": 0}, []),
            ("gen", {"threads": -3}, []),
            ("gen", {"threads": 2.5}, []),
            ("gen", {"threads": True}, []),
            ("membership", {"q": "0.4"}, []),
            ("components", {"trials": "20"}, []),
            ("gen", {"graph": {"kind": "chung_lu", "n": 1e10, "d": 2, "b": 1.5}}, []),
            ("gen", {"graph": {"kind": "er", "n": 1e10, "p": 1e-9}}, []),
            # numpy refuses each of these 72.8 TiB requests before touching
            # memory
            ("sweep", {"q_grid": {"start": 0.1, "stop": 0.9, "count": 10**13}}, []),
            ("sweep", {}, ["--q", "0.1:0.9:10000000000000"]),
            ("audit", {"trials": 10**13}, []),
            # numpy refuses an array length of 2^63 or more with a ValueError
            ("components", {}, ["--trials", "10000000000000000000"]),
            ("audit", {}, ["--trials", "10000000000000000000"]),
            ("attack", {}, ["--trials", "10000000000000000000"]),
            # a --q form the subcommand never reads would run it at the
            # config's q
            ("components", {}, ["--q", "0.1,0.2"]),
            ("membership", {}, ["--q", "0.1:0.9:3"]),
            ("audit", {}, ["--q", "0.1,0.2"]),
            ("attack", {}, ["--q", "0.1:0.9:3"]),
            ("components", {}, ["--q", "0.1:0.9:1"]),
            ("sweep", {}, ["--q", "0.9"]),
            ("sweep", {}, ["--q", "nan"]),
            # a flag the subcommand never reads is not offered
            ("gen", {}, ["--q", "0.1,0.2"]),
            ("gen", {}, ["--trials", "7"]),
            ("sweep", {}, ["--trials", "1"]),
            # a later --config replaces the first
            ("gen", {}, ["--config", "latin1.json"]),
            ("gen", {}, ["--config", "nested.json"]),
        ],
        ids=[
            "membership-trials-0",
            "components-trials-0",
            "sweep-trials-0",
            "attack-threshold-n",
            "attack-threshold-0",
            "attack-s-above-n",
            "audit-protected-above-n",
            "audit-protected-negative",
            "audit-s-0",
            "audit-randomized-response",
            "attack-floors-non-numeric",
            "membership-thresholds-non-numeric",
            "audit-epsilon-non-numeric",
            "attack-threshold-non-numeric",
            "sweep-empty-grid",
            "sweep-empty-grid-flag",
            "attack-floors-bare-number",
            "membership-thresholds-bare-number",
            "attack-floors-empty",
            "audit-protected-other-string",
            "audit-protected-digit-string",
            "components-seed-non-integer",
            "gen-graph-seed-non-integer",
            "gen-several-graph-sources",
            "sweep-seed-fractional",
            "sweep-trials-fractional",
            "components-trials-bool",
            "sweep-grid-count-fractional",
            "gen-graph-n-fractional",
            "audit-protected-fractional",
            "sweep-grid-last-value-above-1",
            "sweep-several-graph-sources",
            "gen-graph-p-null",
            "gen-graph-p-list",
            "gen-graph-d-null",
            "gen-graph-d-inf",
            "gen-graph-b-null",
            "gen-chung-lu-weight-sum-overflows",
            "gen-chung-lu-weights-overflow",
            "gen-graph-p-bool",
            "membership-q-bool",
            "sweep-grid-start-bool",
            "audit-mechanism-scale-inf",
            "audit-mechanism-scale-nan",
            "attack-mechanism-scale-nan",
            "audit-epsilon-overflows-laplace-scale",
            "attack-laplace-error-quantile-overflows",
            "audit-mechanism-clamp-string",
            "gen-edge-list-path-int",
            "gen-edge-list-path-directory",
            "gen-edge-list-undecodable-bytes",
            "gen-edge-list-empty-file",
            "gen-out-dir-int",
            "gen-out-names-a-file",
            "components-graph-name-list",
            "gen-threads-string",
            "gen-threads-0",
            "gen-threads-negative",
            "gen-threads-fractional",
            "gen-threads-bool",
            "membership-q-string",
            "components-trials-string",
            "gen-chung-lu-n-above-graph-bound",
            "gen-er-n-above-graph-bound",
            "sweep-grid-count-unallocatable",
            "sweep-grid-flag-unallocatable",
            "audit-trials-unallocatable",
            "components-trials-above-int64",
            "audit-trials-above-int64",
            "attack-trials-above-int64",
            "components-q-flag-list",
            "membership-q-flag-range",
            "audit-q-flag-list",
            "attack-q-flag-range",
            "components-q-flag-one-value-range",
            "sweep-q-flag-one-value",
            "sweep-q-flag-nan",
            "gen-q-flag",
            "gen-trials-flag",
            "sweep-trials-flag",
            "gen-config-not-utf8",
            "gen-config-nested-past-recursion-limit",
        ],
    )
    def test_bad_config_exits_2_without_traceback(
        self, tmp_path, capsys, monkeypatch, command, entries, flags
    ):
        # edge-list paths are read relative to tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "undecodable.txt").write_bytes(b"\xff\xfe")
        (tmp_path / "empty.txt").write_bytes(b"")
        (tmp_path / "latin1.json").write_bytes('{"note": "caf\xe9"}'.encode("latin-1"))
        (tmp_path / "nested.json").write_text("[" * 100000)
        base = {
            "graph": {"kind": "er", "n": 300, "p": 5 / 299, "seed": 40},
            "q": 0.4,
            "trials": 20,
            "protected": [0],
            "mechanism": {"kind": "laplace", "scale": 5.0},
        }
        config = write_config(tmp_path, **{**base, **entries})
        out = tmp_path / "out"
        out.mkdir()
        # an out_dir entry is read only when no --out flag overrides it
        out_flag = [] if "out_dir" in entries else ["--out", str(out)]
        flags = [flag.replace("{config}", config) for flag in flags]
        rc = main([command, "--config", config, *out_flag, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not any(out.iterdir())

    def test_overflowing_error_quantile_is_refused_before_any_world(
        self, tmp_path, capsys, monkeypatch
    ):
        def drawn(*args, **kwargs):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr(cascadelab.cli, "evaluate_attack", drawn)
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 300, "p": 5 / 299, "seed": 40},
            mechanism={"kind": "laplace", "scale": 1e308},
        )
        rc = main(["attack", "--config", config, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "mechanism scale 1e+308" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name", [("gen", "graph.txt"), ("components", "components.csv")]
    )
    def test_unwritable_output_exits_2_without_traceback(
        self, tmp_path, capsys, command, name
    ):
        """An output file that cannot be written, here because a directory
        holds its name, is reported in one line."""
        config = write_config(
            tmp_path, graph={"kind": "er", "n": 30, "p": 0.1, "seed": 1}, q=0.5, trials=3
        )
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        rc = main([command, "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:")
        assert f"{name}'" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_import_loads_no_scipy(self):
        """The runtime depends on numpy alone; scipy serves only the tests."""
        code = (
            "import sys, cascadelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = Path(cascadelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_import_loads_no_dataclasses(self):
        """The records are NamedTuples: building a frozen dataclass execs
        about six generated functions at import."""
        src = Path(cascadelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def loaded(module):
            code = f"import sys, {module}; print('dataclasses' in sys.modules)"
            return subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout.strip()

        if loaded("numpy") == "True":
            pytest.skip("this numpy imports dataclasses with numpy itself")
        assert loaded("cascadelab.cli") == "False"

    def test_import_leaves_hashlib_unloaded(self):
        """Only `load_edge_list` hashes, so only it imports `hashlib`: about
        5 ms per process after numpy, which generated substrates never pay."""
        src = Path(cascadelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def loaded(module):
            code = f"import sys, {module}; print('hashlib' in sys.modules)"
            return subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout.strip()

        if loaded("numpy") == "True":
            pytest.skip("this numpy imports hashlib with numpy itself")
        assert loaded("cascadelab") == "False"
        assert loaded("cascadelab.cli") == "False"

    @staticmethod
    def _imported_by_audit_and_attack(tmp_path, module):
        """Run `audit` and `attack` on GOLDEN_CONFIG in one fresh process and
        print their exit codes and whether `module` is then in `sys.modules`;
        skips where numpy imports `module` itself."""
        src = Path(cascadelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def run(code):
            return subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout.strip()

        if run(f"import sys, numpy; print({module!r} in sys.modules)") == "True":
            pytest.skip(f"this numpy imports {module} with numpy itself")
        argv = ["--config", write_config(tmp_path, **GOLDEN_CONFIG)]
        argv += ["--out", str(tmp_path / "out")]
        code = (
            "import sys; from cascadelab.cli import main; "
            f"rcs = [main([c, *{argv!r}]) for c in ('audit', 'attack')]; "
            f"print(rcs, {module!r} in sys.modules)"
        )
        return run(code)

    def test_audit_and_attack_leave_numpy_ma_unimported(self, tmp_path):
        """`np.unique` without counts and `np.union1d` import `numpy.ma`,
        about 12 ms per process; the audit and attack paths avoid both."""
        out = self._imported_by_audit_and_attack(tmp_path, "numpy.ma")
        assert out == "[0, 0] False"

    def test_audit_and_attack_leave_numpy_fft_unimported(self, tmp_path):
        """The comparison TVD is summed in closed form, so no subcommand pays
        the lazy `numpy.fft` import, 1-6 ms per process."""
        out = self._imported_by_audit_and_attack(tmp_path, "numpy.fft")
        assert out == "[0, 0] False"

    def test_pyproject_version_is_package_version(self):
        """pyproject.toml and `cascadelab.__version__` name one release.

        Read with a regex: `tomllib` needs Python 3.11 and the package
        supports 3.10."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        found = re.findall(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M)
        assert found == [cascadelab.__version__]

    def test_process_entry_runs_main(self, tmp_path, capsys):
        """`python -m cascadelab.cli` writes what `main()` writes in process,
        keeps the exit codes 2 and 3, and the console script names the
        same entry."""
        src = Path(cascadelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def entry(*argv):
            return subprocess.run(
                [sys.executable, "-m", "cascadelab.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )

        out = tmp_path / "out"
        argv = ["gen", "--config", write_config(tmp_path, **GOLDEN_CONFIG)]
        argv += ["--out", str(out)]
        done = entry(*argv)
        assert done.returncode == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert list(written) == ["graph.txt"]
        for p in out.iterdir():
            p.unlink()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == done.stdout
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

        bad = {**GOLDEN_CONFIG, "mechanism": {"kind": "laplace", "scale": 1.0, "x": 1}}
        edge_file = tmp_path / "k2.txt"
        edge_file.write_text("0 1\n")
        degenerate = {
            "graph": {"kind": "edge_list", "path": str(edge_file)},
            "q": 1.0,
            "trials": 30,
            "protected": [0, 1],
            "mechanism": {"kind": "laplace", "scale": 1.0},
        }
        for entries, code, message in ((bad, 2, "config error:"),
                                       (degenerate, 3, "degenerate conditioning:")):
            config = write_config(tmp_path, "case.json", **entries)
            done = entry("audit", "--config", config, "--out", str(tmp_path / "case"))
            assert done.returncode == code
            assert message in done.stderr
            assert "Traceback" not in done.stderr

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = re.findall(r'^cascadelab\s*=\s*"([^"]+)"', pyproject.read_text(), re.M)
        assert scripts == ["cascadelab.cli:entry"]

    def test_cached_edge_list_is_decoded_again_under_another_encoding(
        self, tmp_path, cache_home
    ):
        """A file that decodes under UTF-8 but not under ASCII exits 2 in an
        ASCII locale even after a UTF-8 run has cached its graph: the cache
        key holds the encoding. UTF-8 mode and a UTF-8 locale name one
        encoding, so they share the entry. `PYTHONUTF8=0` is set explicitly
        because Python may run in UTF-8 mode by default."""
        src = Path(cascadelab.__file__).resolve().parents[1]
        edge_file = tmp_path / "accents.txt"
        edge_file.write_bytes("café 1\n1 2\n".encode())
        config = write_config(
            tmp_path, graph={"kind": "edge_list", "path": str(edge_file)}
        )
        locales = {
            "utf-8 mode": {"PYTHONUTF8": "1"},
            "utf-8 locale": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "0"},
            "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        }

        def gen(encoding):
            env = {**os.environ, "PYTHONPATH": str(src), **locales[encoding]}
            out = tmp_path / encoding.replace(" ", "_")
            return subprocess.run(
                [sys.executable, "-m", "cascadelab.cli", "gen", "--config", config,
                 "--out", str(out)],
                env=env,
                capture_output=True,
                timeout=120,
            ), out

        done, out = gen("utf-8 mode")
        assert done.returncode == 0
        assert (out / "graph.txt").exists()
        [entry] = (cache_home / "cascadelab").iterdir()
        stored = entry.stat()
        done, out = gen("utf-8 locale")
        assert done.returncode == 0
        assert (out / "graph.txt").read_bytes() == (
            tmp_path / "utf-8_mode" / "graph.txt"
        ).read_bytes()
        # a hit: a parse would have replaced the entry with a new file
        now = entry.stat()
        assert (now.st_ino, now.st_mtime_ns) == (stored.st_ino, stored.st_mtime_ns)
        done, out = gen("ascii")
        assert done.returncode == 2
        assert b"'ascii' codec can't decode" in done.stderr
        assert b"Traceback" not in done.stderr
        assert not (out / "graph.txt").exists()

    def test_each_subcommand_offers_only_the_flags_it_reads(self):
        """`gen` reads no q and no trial count, and the sweep reads a q grid
        and `sweep_trials`, so neither offers `--trials` or a one-value
        `--q`; every flag stores the config key it overrides."""
        common = {
            "--config": "config",
            "--seed": "seed",
            "--out": "out_dir",
            "--threads": "threads",
        }
        single_q = {**common, "--trials": "trials", "--q": "q"}
        want = {
            "gen": common,
            "components": single_q,
            "sweep": {**common, "--q": "q_grid"},
            "membership": single_q,
            "audit": single_q,
            "attack": single_q,
        }
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        got = {
            name: {
                flag: action.dest
                for action in parser._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            for name, parser in sub.choices.items()
        }
        assert got == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["components", "--trials", "abc"],
            ["bogus"],
            [],
            ["gen", "extra"],
            ["sweep", "--t", "500"],
            ["gen", "--se", "3"],
            ["components", "--tr", "2"],
        ],
        ids=[
            "trials-not-integer",
            "unknown-subcommand",
            "no-subcommand",
            "extra-argument",
            "prefix-of-threads",
            "prefix-of-seed",
            "prefix-of-trials",
        ],
    )
    def test_bad_command_line_returns_2(self, capsys, tmp_path, argv):
        """In process, `main` returns 2 for a command line it cannot parse,
        as for a bad config, instead of raising `SystemExit`, and prints
        one `config error:` line with no usage. A subcommand's line also
        names a config it could run, so the flags are all that is wrong: a
        prefix of a flag stands for no flag (`sweep --t 500` ran with
        `--threads 500`)."""
        if argv and argv[0] != "bogus":
            config = write_config(
                tmp_path,
                graph={"kind": "er", "n": 20, "p": 0.1},
                trials=5,
                sweep_trials=2,
                q_grid=[0.3, 0.6],
            )
            argv = argv + ["--config", config, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert captured.err.count("\n") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert re.match(r"\d+\.\d+", capsys.readouterr().out.strip().split()[-1])


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 150, "p": 0.03, "seed": 14},
            trials=60,
            thresholds=[0.9, 0.5],
        )
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"out_{threads}"
            rc = main(
                [
                    "membership",
                    "--config",
                    config,
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0
            outputs[threads] = (out / "membership.csv").read_bytes()
        assert outputs[1] == outputs[8]

    def test_rerun_identical(self, tmp_path):
        config = write_config(
            tmp_path,
            graph={"kind": "er", "n": 100, "p": 0.05, "seed": 15},
            q_grid=[0.3, 0.7],
            sweep_trials=10,
        )
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["sweep", "--config", config, "--out", str(out)]) == 0
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]


GOLDEN_CONFIG = {
    "graph": {"kind": "er", "n": 120, "p": 0.04, "seed": 21},
    "q": 0.5,
    "s": 1,
    "trials": 40,
    "sweep_trials": 4,
    "q_grid": [0.2, 0.6],
    "thresholds": [0.9, 0.5],
    "floors": [0.9, 0.5],
    "protected": [0, 1],
    "epsilon": 1.0,
    "seed": 7,
    "mechanism": {"kind": "laplace", "scale": 5.0},
}

# SHA-256 of every file each subcommand writes for GOLDEN_CONFIG (and, for
# the cases in GOLDEN_VARIANTS, the config with those entries replaced).
# The CSV digests cover the tool_version header line, so every CSV digest
# was re-recorded at 0.2.5, when the audit's comparison_tvd, summed in
# closed form instead of by FFT, moved in its last digit (audit.csv of
# "audit" and "audit-all"); below the header no other byte moved. The ER
# graph stream, with "gen", was recorded at 0.2.3; "gen-chung-lu" pins the
# Chung-Lu graph stream, recorded at version 0.2.0; the audit and attack
# streams, with "audit-all", at 0.2.1; the coupled-q sweep stream at 0.2.2.
# A change here means an RNG stream, the version or an output format moved.
GOLDEN_DIGESTS = {
    "gen": {
        "graph.txt": (
            "2d48cec5cb3961d1c4bda5dbe604ca4c55b10c497130abe6ecc5e5d89d87f335"
        ),
    },
    "components": {
        "components.csv": (
            "707bf84d52ab48b6ef764bdc368619d47da3ca81c5b9b2c7ec8d9b872d7bc057"
        ),
    },
    "sweep": {
        "sweep.csv": (
            "23c33e1069365c7f85197b79b38db6847b792c9b68beafad7211e1a396801894"
        ),
    },
    "membership": {
        "membership.csv": (
            "99884c5c69795f12c99ce457d95da20a0eacea14f603b64f3d28cc9a2ea6bdc0"
        ),
    },
    "audit": {
        "audit.csv": (
            "329a07afb3acc3e6d31ec6ea35d71e791f8a3a60f744c8b3da8f105b2b5432d2"
        ),
        "audit_nodes.csv": (
            "b91908342391c9001998e6410478883ac6fa25d879f226ff76bfb08838433b9d"
        ),
    },
    "attack": {
        "attack.csv": (
            "003c3dc19e58fccfccfc0047a9109755e54e40f530f9407618c5cef424343bee"
        ),
        "attack_summary.csv": (
            "24a843d43827c112d9f6e544e67d0d60d05c4177787eccba1099725aa2dcfa8e"
        ),
    },
    "audit-all": {
        "audit.csv": (
            "4e4f14c5af0b2de25bc2ab88375b59770b6a278f19f1a8298ca457e7d11e1541"
        ),
        "audit_nodes.csv": (
            "e7ccb8e23ad5c322022ede22f4d06f561c8d39fbc2690861c087adab5f475853"
        ),
    },
    "attack-rr": {
        "attack.csv": (
            "caa325da5275d8f4df53d0a0a55a84ffa7786f963d455acf2f72c0fadc8f0791"
        ),
        "attack_summary.csv": (
            "07563105f409378ee0fdab0c14bca0ac38a81b0f18ff160c200e5bd0c62f97f1"
        ),
    },
    "gen-chung-lu": {
        "graph.txt": (
            "b1c6908b671ed4244a16a337046b89a57dfb144e62970dbe6375fa92a72da0e5"
        ),
    },
}


# config entries that differ from GOLDEN_CONFIG, by case
GOLDEN_VARIANTS = {
    "attack-rr": {
        "mechanism": {"kind": "randomized_response", "flip_prob": 0.2, "clamp": True}
    },
    "gen-chung-lu": {
        "graph": {"kind": "chung_lu", "n": 120, "d": 2.0, "b": 1.5, "seed": 21}
    },
    "audit-all": {"protected": "all"},
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_outputs_match_recorded_digests(tmp_path, case):
    entries = {**GOLDEN_CONFIG, **GOLDEN_VARIANTS.get(case, {})}
    config = write_config(tmp_path, **entries)
    out = tmp_path / "out"
    command = case.split("-")[0]
    assert main([command, "--config", config, "--out", str(out)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == GOLDEN_DIGESTS[case]

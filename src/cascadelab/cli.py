"""Config-driven experiment runner.

Subcommands: gen, components, sweep, membership, audit, attack. Every run
takes an optional JSON config plus flag overrides, each subcommand offering
only the flags it reads (`build_parser`), and writes CSV files whose first
line is a comment carrying the 64-bit FNV-1a hash of the effective config
and the tool version. Identical (config, seed) runs write byte-identical
files. Trials are drawn in blocks (`percolation.world_blocks`) in one
thread; the sweep folds them at every q, each single-q subcommand reads a
`percolation.record_worlds` record, and the attack's evaluation also folds
blocks of fresh trials. `--threads` and the `threads` key are accepted for
older configs and scripts, and must be positive integers, but change
nothing.

Exit codes: 0 success, 2 configuration error (a bad command line, a config
file or output that cannot be read or written, and a request too large to
allocate included), 3 degenerate conditioning.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attack import evaluate_attack
from .graph import (
    Graph,
    chung_lu_weights,
    dump_edge_list,
    generate_chung_lu,
    generate_er,
    load_edge_list,
)
from .percolation import DegenerateConditioningError, record_worlds, world_blocks
from .privacy import (
    MechanismSpec,
    comparison_tvd,
    mechanism_error_quantile,
    wasserstein_mechanism_scale,
)
from .seeding import child_seed

logger = logging.getLogger(__name__)

DEFAULTS = {
    "q": 0.3,
    "s": 1,
    "trials": 1000,
    "sweep_trials": 50,
    "thresholds": [0.99, 0.95, 0.90, 0.75, 0.50],
    "floors": [0.99, 0.95, 0.90, 0.75, 0.50],
    "seed": 42,
    "threads": 1,
    "epsilon": 1.0,
    "protected": [0],
    "q_grid": {"start": 0.05, "stop": 0.9, "count": 20},
    "out_dir": "out",
}

# purpose tags for deriving independent sub-streams from the master seed
_STREAM_GRAPH = 101
_STREAM_TRIALS = 102
_STREAM_SWEEP = 103
_STREAM_AUDIT = 104
_STREAM_ATTACK = 105


class ConfigError(ValueError):
    """The effective configuration is unusable."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# keys that do not affect what a run computes ("threads" is checked and
# ignored: trials run in one thread)
_NON_EXPERIMENT_KEYS = ("threads", "out_dir")


def config_hash(cfg: dict) -> int:
    """Hash of the canonical JSON form (sorted keys, compact separators).

    Thread count and output directory are excluded so reruns of the same
    experiment hash identically wherever and however they execute.
    """
    stripped = {k: v for k, v in cfg.items() if k not in _NON_EXPERIMENT_KEYS}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return fnv1a64(text.encode("utf-8"))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _fmt(x) -> str:
    """One CSV field; text holding a comma, a quote or a line break is quoted."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    text = str(x)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, columns: list[str], rows, cfg_hash: int) -> None:
    """Write rows with a header and a config-hash comment, LF line endings.

    Fields are quoted as `csv.writer` quotes them, and also for a carriage
    return, which `csv.writer` leaves bare under an LF line terminator.
    """
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash:016x} tool_version={__version__}\n")
        fh.write(",".join(map(_fmt, columns)) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _q_grid(text: str) -> list[float]:
    """The sweep's `--q`: a grid '0.1,0.2,0.3' or 'start:stop:count'.

    One value is refused, since the sweep would walk a grid of one q.
    """
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            return np.linspace(float(start), float(stop), int(count)).tolist()
        if "," in text:
            return [float(v) for v in text.split(",")]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is not a q grid X,Y,Z or start:stop:count"
    )


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, or nesting deeper than
            # the parser's recursion limit
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if "graph" not in cfg:
        raise ConfigError("config needs a 'graph' entry")
    return cfg


def _number(value, key: str) -> float:
    """Config value `value` of `key` as a finite float; bools and strings
    are refused."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, not {value!r}") from exc
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be finite, not {value!r}")
    return x


def _numbers(values, key: str) -> list[float]:
    """Config list `values` of `key` as finite floats, at least one."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, not {values!r}")
    if not values:
        raise ConfigError(f"{key} holds no values")
    return [_number(v, key) for v in values]


def _q_values(cfg: dict) -> list[float]:
    """The q grid in config order, each value checked to lie in (0, 1]."""
    grid = cfg.get("q_grid")
    if isinstance(grid, dict):
        try:
            values = np.linspace(
                _number(grid["start"], "q_grid start"),
                _number(grid["stop"], "q_grid stop"),
                _integer(grid["count"], "q_grid count"),
            ).tolist()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad q_grid {grid!r}: {exc}") from exc
    elif isinstance(grid, (list, tuple)):
        values = _numbers(grid, "q_grid")
    else:
        raise ConfigError("q_grid must be a list or {start, stop, count}")
    if not values:
        raise ConfigError("q_grid holds no q values")
    if not all(0.0 < q <= 1.0 for q in values):
        raise ConfigError("q grid values must lie in (0, 1]")
    return values


def _single_q(cfg: dict) -> float:
    q = cfg["q"]
    if isinstance(q, (list, tuple)):
        raise ConfigError("this subcommand expects a single q value")
    q = _number(q, "q")
    if not 0.0 < q <= 1.0:
        raise ConfigError("q must lie in (0, 1]")
    return q


def build_graph(source: dict, master_seed: int) -> tuple[str, Graph]:
    """Realize one graph source; returns (display name, graph)."""
    if not isinstance(source, dict) or "kind" not in source:
        raise ConfigError("graph source must be an object with a 'kind'")
    kind = source["kind"]
    if not isinstance(source.get("name", ""), str):
        raise ConfigError(f"graph name must be a string, not {source['name']!r}")
    if "seed" in source:
        seed = _integer(source["seed"], "graph seed")
    else:
        seed = child_seed(master_seed, _STREAM_GRAPH)
    try:
        if kind == "er":
            n, p = _integer(source["n"], "graph n"), _number(source["p"], "graph p")
            g = generate_er(n, p, seed)
            name = source.get("name", f"er_n{n}_p{p:g}")
        elif kind == "chung_lu":
            n = _integer(source["n"], "graph n")
            d, b = _number(source["d"], "graph d"), _number(source["b"], "graph b")
            g = generate_chung_lu(chung_lu_weights(n, d, b), seed)
            name = source.get("name", f"chung_lu_n{n}_d{d:g}_b{b:g}")
        elif kind == "edge_list":
            path = source["path"]
            if not isinstance(path, str):
                raise ConfigError(f"graph path must be a string, not {path!r}")
            g = load_edge_list(path)
            name = source.get("name", Path(path).stem)
        else:
            raise ConfigError(f"unknown graph kind {kind!r}")
    except ConfigError:
        raise
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"bad graph source: {exc}") from exc
    return name, g


def _graph_sources(cfg: dict) -> list[dict]:
    src = cfg["graph"]
    if isinstance(src, dict):
        return [src]
    if isinstance(src, list) and src and all(isinstance(s, dict) for s in src):
        return src
    raise ConfigError("'graph' must be an object or a non-empty list of objects")


def _the_graph(cfg: dict, master_seed: int) -> tuple[str, Graph]:
    sources = _graph_sources(cfg)
    if len(sources) != 1:
        raise ConfigError("this subcommand expects exactly one graph source")
    return build_graph(sources[0], master_seed)


def _integer(value, key: str) -> int:
    """Config value `value` of `key` as an int; bools, strings and fractions
    are refused."""
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be an integer, not {value!r}") from exc


def _master_seed(cfg: dict) -> int:
    return _integer(cfg["seed"], "seed")


def _count(cfg: dict, key: str, hi: int = np.iinfo(np.intp).max) -> int:
    """Integer config value `key`, required to lie in 1..hi; hi defaults to
    numpy's longest array, since a longer one cannot even be requested."""
    value = _integer(cfg[key], key)
    if not 1 <= value <= hi:
        raise ConfigError(f"{key} must lie in 1..{hi}")
    return value


def _protected(cfg: dict, n: int) -> list[int]:
    """Protected node ids, each in 0..n-1; "all" names every node."""
    raw = cfg["protected"]
    if raw == "all":
        return list(range(n))
    if not isinstance(raw, (list, tuple)):
        raise ConfigError('protected must be a list of node ids or "all"')
    nodes = [_integer(v, "a protected node id") for v in raw]
    if not nodes or not all(0 <= v < n for v in nodes):
        raise ConfigError(f"protected must name node ids in 0..{n - 1}")
    return nodes


def _mechanism(cfg: dict) -> MechanismSpec:
    raw = cfg.get("mechanism")
    if raw is None:
        raise ConfigError("config needs a 'mechanism' entry")
    if not isinstance(raw, dict):
        raise ConfigError("'mechanism' must be an object")
    try:
        return MechanismSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mechanism: {exc}") from exc


def cmd_gen(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Realize the configured graph and write its edge list (graph.txt)."""
    name, g = _the_graph(cfg, _master_seed(cfg))
    path = out_dir / "graph.txt"
    dump_edge_list(g, path)
    print(f"wrote {path} ({name}: {g.node_count} nodes, {g.edge_count} edges)")
    return 0


def cmd_components(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Mean and std of the two largest components over trials at one q."""
    q = _single_q(cfg)
    trials = _count(cfg, "trials")
    master = _master_seed(cfg)
    rows = []
    for idx, source in enumerate(_graph_sources(cfg)):
        name, g = build_graph(source, master)
        record = record_worlds(
            g, q, None, trials, child_seed(child_seed(master, _STREAM_TRIALS), idx)
        )
        # float64 sizes in trial order, so the means do not depend on the
        # blocking
        sizes = [x.astype(np.float64) for x in (record.giant_size, record.second_size)]
        stats = [float(x.mean()) for x in sizes] + [float(x.std()) for x in sizes]
        rows.append((name, g.node_count, g.edge_count, q, trials, *stats))
    write_csv(
        out_dir / "components.csv",
        [
            "network",
            "n",
            "edges",
            "q",
            "trials",
            "mean_giant",
            "mean_second",
            "std_giant",
            "std_second",
        ],
        rows,
        cfg_hash,
    )
    return 0


def cmd_sweep(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Mean giant and second fractions at every q of the grid (sweep.csv)."""
    master = _master_seed(cfg)
    q_grid = _q_values(cfg)
    trials = _count(cfg, "sweep_trials")
    _, g = _the_graph(cfg, master)
    # integer sums: each q's mean is exact whatever the blocking
    giant = np.zeros(len(q_grid), dtype=np.int64)
    second = np.zeros(len(q_grid), dtype=np.int64)
    for block in world_blocks(g, q_grid, child_seed(master, _STREAM_SWEEP), trials):
        giant[block.qi] += block.giant_size.sum()
        second[block.qi] += block.second_size.sum()
        del block  # free it before the next block is labeled
    n = g.node_count
    rows = [
        (q, gs / trials / n, ss / trials / n)
        for q, gs, ss in zip(q_grid, giant.tolist(), second.tolist())
    ]
    write_csv(
        out_dir / "sweep.csv",
        ["q", "mean_giant_frac", "mean_second_frac"],
        rows,
        cfg_hash,
    )
    return 0


def cmd_membership(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Count the nodes in the giant in at least each threshold's share of trials."""
    master = _master_seed(cfg)
    _, g = _the_graph(cfg, master)
    q = _single_q(cfg)
    trials = _count(cfg, "trials")
    thresholds = _numbers(cfg["thresholds"], "thresholds")
    record = record_worlds(g, q, None, trials, child_seed(master, _STREAM_TRIALS))
    est = record.membership()
    rows = []
    for threshold in thresholds:
        count = int(est.at_least(threshold).sum())
        rows.append((threshold, count, count / g.node_count))
    write_csv(
        out_dir / "membership.csv",
        ["threshold", "node_count", "node_fraction"],
        rows,
        cfg_hash,
    )
    return 0


def cmd_audit(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Calibrate the Wasserstein mechanism's noise scale over the protected nodes."""
    master = _master_seed(cfg)
    _, g = _the_graph(cfg, master)
    q = _single_q(cfg)
    s = _count(cfg, "s", hi=g.node_count)
    trials = _count(cfg, "trials")
    epsilon = _number(cfg["epsilon"], "epsilon")
    if epsilon <= 0:
        raise ConfigError("epsilon must be > 0")
    protected = _protected(cfg, g.node_count)
    comparison = _mechanism(cfg)
    if not comparison.is_laplace:
        raise ConfigError(
            "audit pushes counts through Laplace noise; the comparison "
            "mechanism must be of kind laplace or wasserstein"
        )
    record = record_worlds(
        g, q, s, trials, child_seed(child_seed(master, _STREAM_AUDIT), 0)
    )
    report = wasserstein_mechanism_scale(record, protected)
    lap_scale = report.w_scale / epsilon
    if not np.isfinite(lap_scale):
        raise ConfigError(
            f"epsilon {epsilon!r} makes the Laplace scale "
            f"w_scale / epsilon = {report.w_scale!r} / {epsilon!r} overflow"
        )
    # the theta gap and the comparison test are diagnostics read from the
    # same worlds; a world whose giant is always (or never) seeded still has
    # a well-defined W, so a one-sided split downgrades them to nan instead
    # of aborting the audit
    theta_lo = theta_hi = test_tvd = test_error = float("nan")
    try:
        x0, x1 = record.giant_split()
    except DegenerateConditioningError as exc:
        logger.warning("theta split unavailable: %s", exc)
    else:
        theta_lo, theta_hi = float(x0[-1]), float(x1[0])
        test_tvd = comparison_tvd(x0, x1, comparison, n=g.node_count)
        # the best test telling the two pushed laws apart errs this often
        test_error = 1.0 - test_tvd
    rows = [
        ("w_scale", report.w_scale),
        ("epsilon", epsilon),
        ("laplace_scale", lap_scale),
        ("mean_abs_noise", lap_scale),
        ("theta_inactive_max", theta_lo),
        ("theta_active_min", theta_hi),
        ("theta_gap", theta_hi - theta_lo),
        ("comparison_kind", comparison.kind),
        ("comparison_tvd", test_tvd),
        ("comparison_test_error", test_error),
        ("degenerate_nodes", len(report.degenerate)),
    ]
    write_csv(out_dir / "audit.csv", ["metric", "value"], rows, cfg_hash)
    node_rows = sorted(report.per_node.items())
    write_csv(
        out_dir / "audit_nodes.csv", ["node", "w_infinity"], node_rows, cfg_hash
    )
    return 0


def cmd_attack(cfg: dict, out_dir: Path, cfg_hash: int) -> int:
    """Evaluate the count-threshold attack end to end at one q."""
    master = _master_seed(cfg)
    _, g = _the_graph(cfg, master)
    q = _single_q(cfg)
    fixed = cfg.get("decision_threshold")
    if fixed is not None:
        fixed = _number(fixed, "decision_threshold")
        if not 0.0 < fixed < g.node_count:
            raise ConfigError("decision_threshold must lie in (0, n)")
    mechanism = _mechanism(cfg)
    if not np.isfinite(mechanism_error_quantile(mechanism, g.node_count)):
        raise ConfigError(
            f"mechanism scale {mechanism.scale!r} makes its error quantile overflow"
        )
    evaluation = evaluate_attack(
        g,
        q,
        _count(cfg, "s", hi=g.node_count),
        mechanism,
        _numbers(cfg["floors"], "floors"),
        _count(cfg, "trials"),
        child_seed(master, _STREAM_ATTACK),
        decision_threshold=fixed,
    )
    rows = [
        (fs.floor, fs.predicted_nodes, fs.coverage, fs.precision)
        for fs in evaluation.floors
    ]
    write_csv(
        out_dir / "attack.csv",
        ["floor", "predicted_nodes", "coverage", "precision"],
        rows,
        cfg_hash,
    )
    summary = [
        ("giant_status_accuracy", evaluation.giant_status_accuracy),
        ("decision_threshold", evaluation.decision_threshold),
        ("theta_inactive_max", evaluation.inactive_max),
        ("theta_active_min", evaluation.active_min),
        ("max_mechanism_error", evaluation.max_mechanism_error),
        ("tie_trials", evaluation.tie_trials),
        ("calibration_trials", evaluation.trials),
        ("evaluation_trials", evaluation.trials),
    ]
    write_csv(out_dir / "attack_summary.csv", ["metric", "value"], summary, cfg_hash)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "components": cmd_components,
    "sweep": cmd_sweep,
    "membership": cmd_membership,
    "audit": cmd_audit,
    "attack": cmd_attack,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `ConfigError`, so that `main`
    reports a bad command line as it reports a bad config (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand with only the flags it reads, each stored
    under the config key it overrides. No parser takes a prefix of a flag
    for the flag (`allow_abbrev`): `sweep --t 500` would set the ignored
    `--threads`, not a trial count."""
    parser = _Parser(
        prog="cascadelab",
        description="Percolated-contagion experiments on privacy of released counts",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(
            name, help=command.__doc__, description=command.__doc__, allow_abbrev=False
        )
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument(
            "--threads", type=int, help="accepted and ignored; trials run in one thread"
        )
        if name == "sweep":
            p.add_argument(
                "--q", dest="q_grid", type=_q_grid, help="X,Y,Z or start:stop:count"
            )
        elif name != "gen":
            p.add_argument("--trials", type=int, help="trial count")
            p.add_argument("--q", type=float, help="transmission probability in (0, 1]")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        overrides = vars(build_parser().parse_args(argv))
        command = _COMMANDS[overrides.pop("command")]
        cfg = load_config(overrides.pop("config"), overrides)
        _count(cfg, "threads")  # ignored, but a bad value is still an error
        cfg_hash = config_hash(cfg)
        try:
            out_dir = Path(cfg["out_dir"])
            out_dir.mkdir(parents=True, exist_ok=True)
        except (TypeError, OSError) as exc:
            raise ConfigError(f"bad out_dir {cfg['out_dir']!r}: {exc}") from exc
        return command(cfg, out_dir, cfg_hash)
    except (ConfigError, MemoryError, OSError) as exc:
        # numpy refuses an allocation larger than the machine can grant
        # before touching memory: a count or size asked for is too large.
        # Inputs are read under ConfigError, so an OSError is an output
        # that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateConditioningError as exc:
        print(f"degenerate conditioning: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """Process entry: `python -m cascadelab.cli` and the `cascadelab` script.

    Freezes the import-time heap (`gc.freeze`), so that no collection, the
    one at interpreter exit included, walks numpy's and the package's
    objects again, then exits with `main()`'s code. `main` itself leaves
    the collector alone: in-process callers would keep their garbage.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

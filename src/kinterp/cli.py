"""Config-driven experiment runner.

Subcommands:

    kinterp run <config>        run an experiment, emit CSV (and SVG)
    kinterp validate <config>   parse and check a config, print the result
    kinterp plot <csv> <spec>   chart columns of an emitted CSV

Configs are flat key = value files with sections (see README). Each field
outside [target] is one row of `_FIELDS`, which gives its parser, default
and allowed values; the parsed config and the CSV metadata key it by the
same "section.key" name. `validate` also builds the kernel and the target,
so it accepts exactly the configs that `run` accepts. Outputs are
deterministic for a fixed config: rerunning emits byte-identical CSVs. The
environment variable KINTERP_THREADS pins the BLAS thread count, overriding
the OMP/OpenBLAS/MKL/numexpr thread settings inherited from the caller; the
`kinterp` package applies it when it is first imported, before numpy loads,
which every entry point (`python -m kinterp.cli`, the `kinterp` script)
does before this module runs. It reaches scipy's LAPACK (the factor and
the solves); numpy's OpenBLAS, which forms the grid scan's GEMMs on the
tile workers, always runs one thread. A level that a log axis cannot show
(zero or negative) keeps its CSV row, is left out of the SVG and is named
on stderr. Each warning a command raises (a fit's residual above 1e-8,
say) is shown as one `warning: ...` line on stderr.

Exit codes: 0 success (some level was measured), 1 config or file error,
2 every level failed numerically.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import geometry, kernels
from .diagnostics import classify_norm_growth, error_slopes, read_report_csv
from .geometry import Box
from .interpolation import FactorizationError, fit, interpolant_to_csv
from .svg import AxesSpec, Series, SvgError, emit_svg
from .targets import _PARAMETERS as _TARGET_PARAMETERS, make_target

EXPERIMENTS = ("lebesgue_trace", "convergence", "norm_growth", "decay", "interp_once")
KERNEL_NAMES = ("matern12", "matern32", "matern52", "gaussian", "w21")
DESIGN_SCHEMES = ("greedy_low_discrepancy", "greedy_uniform_random",
                  "equispaced_nested", "equispaced_levels")
SCALES = ("linear", "log")

_TARGET_FREE = ("lebesgue_trace", "decay")


class ConfigError(ValueError):
    pass


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_centers(text: str) -> list:
    if ";" in text:
        return [_floats(part) for part in text.split(";") if part.strip()]
    return [(v,) for v in _floats(text)]


def _flag(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


# Every config field outside [target], in CSV metadata order:
# "section.key": (parser of its text, default text or None if required,
#                 allowed texts or None for any)
_FIELDS = {
    "experiment.kind": (str, None, EXPERIMENTS),
    "kernel.family": (str, None, KERNEL_NAMES),
    "kernel.gamma": (float, "1.0", None),
    "kernel.dim": (int, "1", None),
    "domain.lower": (_floats, None, None),
    "domain.upper": (_floats, None, None),
    "design.scheme": (str, None, DESIGN_SCHEMES),
    "design.seed": (int, "0", None),
    "design.candidates": (int, "10000", None),
    "design.levels": (_ints, None, None),
    "grid.points_per_axis": (lambda text: int(text) if text else None, "", None),  # empty: by dim
    "output.prefix": (str, None, None),
    "output.svg": (_flag, "false", None),
    "output.xscale": (str, "linear", SCALES),
    "output.yscale": (str, "linear", SCALES),
}
# [target] holds the target's name and its parameters, floats except these
_TARGET_PARSERS = {"center": _floats, "centers": _parse_centers, "weights": _floats}
_TARGET_FIELDS = {f"target.{key}" for keys in ({"name"}, *_TARGET_PARAMETERS.values())
                  for key in keys}
_KNOWN = _FIELDS.keys() | _TARGET_FIELDS
_SECTIONS = {name.partition(".")[0] for name in _KNOWN}

# A parsed config: each _FIELDS name -> its value, plus "target.name" (None
# without a target) and "target.params" (parameter name -> value).
ExperimentConfig = dict


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises ConfigError with the offending section/field (or the parser's
    line diagnostics for syntax errors).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return _validate(cp)


def _validate(cp: configparser.ConfigParser) -> ExperimentConfig:
    """Check the sections and fields of a parsed config and build the
    ExperimentConfig, raising ConfigError on the first problem. The kernel
    and the target are built once, so a config that passes is one `run`
    accepts."""
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if f"{section}.{key}" not in _KNOWN:
                raise ConfigError(f"unknown field {section}.{key}")

    cfg = {}
    for name, (parse, default, allowed) in _FIELDS.items():
        text = cp.get(*name.split("."), fallback=default)
        if text is None:
            raise ConfigError(f"missing required field {name}")
        if allowed is not None and text not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {text!r}")
        try:
            cfg[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    kind, family, dim = cfg["experiment.kind"], cfg["kernel.family"], cfg["kernel.dim"]
    try:
        domain = Box(lower=cfg["domain.lower"], upper=cfg["domain.upper"])
    except geometry.GeometryError as exc:
        raise ConfigError(f"domain.lower, domain.upper: {exc}") from exc
    if domain.dim != dim:
        raise ConfigError(f"domain has dimension {domain.dim}, kernel.dim is {dim}")
    if family == "w21" and dim != 1:
        raise ConfigError("kernel.family w21 requires kernel.dim = 1")
    try:
        kernel = _build_kernel(cfg)
    except kernels.KernelError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc

    scheme, levels = cfg["design.scheme"], cfg["design.levels"]
    if not levels:
        raise ConfigError("design.levels must not be empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("design.levels must be strictly increasing")
    if levels[0] < 1:
        raise ConfigError("design.levels must be at least 1")
    if kind == "interp_once" and len(levels) > 1:
        raise ConfigError("interp_once fits one level: design.levels must hold one size")
    if cfg["design.seed"] < 0:
        raise ConfigError("design.seed must be at least 0")
    if scheme.startswith("greedy") and cfg["design.candidates"] < max(levels):
        raise ConfigError("design.candidates must cover the largest level")
    if scheme.startswith("equispaced") and dim != 1:
        raise ConfigError(f"design.scheme {scheme} is 1-d only")
    if scheme == "equispaced_nested":
        for a, b in zip(levels, levels[1:]):
            if b != 2 * a + 1:
                raise ConfigError(
                    "design.levels for equispaced_nested must follow n -> 2n+1, "
                    f"got {a} -> {b}")
    if kind == "norm_growth" and scheme == "equispaced_levels":
        raise ConfigError("norm_growth needs a nested design scheme")
    if kind == "decay" and dim != 1:
        raise ConfigError("decay experiments are 1-d (kernel.dim must be 1)")
    if kind == "decay" and not family.startswith("matern"):
        raise ConfigError("decay experiments need a Matern kernel.family")

    if cfg["grid.points_per_axis"] is None:
        cfg["grid.points_per_axis"] = {1: 4097, 2: 513}.get(dim, 129)
    if cfg["grid.points_per_axis"] < 33:
        raise ConfigError("grid.points_per_axis must be at least 33")

    params = dict(cp["target"]) if cp.has_section("target") else {}
    name = cfg["target.name"] = params.pop("name", None)
    if kind not in _TARGET_FREE and name is None:
        raise ConfigError(f"experiment {kind} requires target.name")
    for key, text in params.items():
        try:
            params[key] = _TARGET_PARSERS.get(key, float)(text)
        except ValueError as exc:
            raise ConfigError(f"target.{key}: {exc}") from exc
    cfg["target.params"] = params
    if name is not None:
        try:
            make_target(name, params, kernel, domain)
        except ValueError as exc:  # TargetError, or a parameter of the wrong shape
            raise ConfigError(f"[target] {exc}") from exc
    return cfg


def _format(value) -> str:
    """Metadata text of a parsed value: tuples joined with ", ", bools in
    lower case, floats by repr, anything else by str."""
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def config_metadata(cfg: ExperimentConfig) -> dict:
    """Flatten a config into the CSV metadata mapping; parse_metadata_config
    inverts this, so an emitted CSV holds all a rerun reads but the BLAS
    thread count."""
    md = {name: _format(cfg[name]) for name in _FIELDS}
    if cfg["target.name"] is not None:
        md["target.name"] = cfg["target.name"]
        for key, val in sorted(cfg["target.params"].items()):
            md[f"target.{key}"] = ("; ".join(" ".join(map(repr, pt)) for pt in val)
                                   if key == "centers" else _format(val))
    return md


def parse_metadata_config(meta: dict) -> ExperimentConfig:
    """Rebuild an ExperimentConfig from CSV metadata (rerun round-trip)."""
    cp = configparser.ConfigParser()
    for key, value in meta.items():
        if key not in _KNOWN:
            continue
        section, _, name = key.partition(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, name, str(value))
    return _validate(cp)


def _build_kernel(cfg: ExperimentConfig):
    fam, gamma, dim = cfg["kernel.family"], cfg["kernel.gamma"], cfg["kernel.dim"]
    if fam == "gaussian":
        return kernels.gaussian(gamma=gamma, dim=dim)
    if fam == "w21":
        return kernels.interval_sobolev(cfg["domain.lower"][0], cfg["domain.upper"][0])
    nu = {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}[fam]
    return kernels.matern(nu=nu, gamma=gamma, dim=dim)


def _build_levels(cfg: ExperimentConfig, domain) -> list:
    """The point set of every level: nested prefixes of one design, or for
    `equispaced_levels` independent equispaced sets."""
    scheme, levels = cfg["design.scheme"], cfg["design.levels"]
    if scheme == "equispaced_levels":
        return [geometry.equispaced_interval(domain.lower[0], domain.upper[0], n)
                for n in levels]
    if scheme == "equispaced_nested":
        design = geometry.nested_equispaced_design(
            domain.lower[0], domain.upper[0], levels[0], len(levels))
    else:
        pool_scheme = ("low_discrepancy" if scheme == "greedy_low_discrepancy"
                       else "uniform_random")
        cands = geometry.generate_candidates(domain, cfg["design.candidates"], pool_scheme,
                                             seed=cfg["design.seed"])
        center = 0.5 * (np.asarray(domain.lower) + np.asarray(domain.upper))
        seed_index = int(np.argmin(np.sum((cands.points - center) ** 2, axis=1)))
        design = geometry.geometric_greedy(cands, max(levels), seed_index, levels)
    return [design.level_points(i) for i in range(len(design))]


def _norm_growth_metadata(rows) -> dict:
    label, slope = classify_norm_growth(rows)
    return {"norm_growth.classification": label, "norm_growth.slope": repr(slope)}


def _convergence_metadata(rows) -> dict:
    return {f"convergence.{key}": repr(v) if math.isfinite(v) else "n/a"
            for key, v in error_slopes(rows).items()}


@dataclass(frozen=True)
class _Kind:
    """How `run` measures and charts one experiment kind."""

    quantities: dict  # measure_levels keyword arguments (decay: _decay_rows)
    series: tuple  # (label, x column, y column) of each charted series
    xlabel: str
    ylabel: str
    title: str  # formatted with the values of the metadata hook
    metadata: Callable[[list], dict] | None = None  # rows -> metadata after the config's
    log_log: bool = False  # chart log-log whatever output.xscale / yscale say


_KINDS = {
    "lebesgue_trace": _Kind({"lebesgue": True},
                            (("Lebesgue constant", "n", "lebesgue_constant"),),
                            "n", "Lebesgue constant", "Lebesgue constant per level"),
    "norm_growth": _Kind({}, (("native norm", "n", "native_norm"),),
                         "n", "native norm", "norm growth: {0}",
                         metadata=_norm_growth_metadata),
    "convergence": _Kind({"lebesgue": True, "errors": True},
                         (("sup error", "h", "sup_error"), ("L2 error", "h", "l2_error")),
                         "fill distance h", "error", "convergence",
                         metadata=_convergence_metadata, log_log=True),
    "decay": _Kind({}, (("decay rate", "n", "nu_hat"),),
                   "n", "fitted decay rate", "Lagrange decay rate per level"),
}


def _decay_rows(kernel, domain, level_sets, grid) -> list[dict]:
    """Decay fit of the central cardinal function of each level; a level
    whose solve or fit fails gets nan values and no usable points."""
    nan = float("nan")
    rows = []
    for X in level_sets:
        h = dg.fill_distance_interval(X, domain.lower[0], domain.upper[0])
        i = (len(X) - 1) // 2
        try:
            f = dg.decay_profile(kernel, X, i, grid, h)
        except (FactorizationError, dg.DecayFitError):
            f = dg.DecayFit(nu_hat=nan, c_hat=nan, r_squared=nan, c_env=nan,
                            n_points=0, floor=nan)
        rows.append({"n": len(X), "node_index": i, **asdict(f)})
    return rows


def run(cfg: ExperimentConfig) -> tuple[int, list[str]]:
    """Execute one experiment; returns (exit_code, written file paths)."""
    domain = Box(lower=cfg["domain.lower"], upper=cfg["domain.upper"])
    kernel = _build_kernel(cfg)
    target = (None if cfg["target.name"] is None
              else make_target(cfg["target.name"], cfg["target.params"], kernel, domain))
    level_sets = _build_levels(cfg, domain)
    grid = dg.EvalGrid.tensor(domain, cfg["grid.points_per_axis"])
    meta = config_metadata(cfg)
    out_prefix = Path(cfg["output.prefix"])
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = str(out_prefix) + ".csv"

    if cfg["experiment.kind"] == "interp_once":
        X = level_sets[0]
        interpolant_to_csv(fit(kernel, X, target(X.points)), csv_path)
        return 0, [csv_path]

    kind = _KINDS[cfg["experiment.kind"]]
    if cfg["experiment.kind"] == "decay":
        rows, columns = _decay_rows(kernel, domain, level_sets, grid), dg.DECAY_COLUMNS
    else:
        rows = dg.measure_levels(kernel, level_sets, grid, target, **kind.quantities)
        columns = dg.REPORT_COLUMNS
    extra = kind.metadata(rows) if kind.metadata is not None else {}
    dg.DiagnosticsReport(rows=tuple(rows), metadata={**meta, **extra},
                         columns=columns).to_csv(csv_path)
    written = [csv_path]
    # a level counts as measured when its charted values are finite (failed ones hold nan)
    good = [r for r in rows if all(math.isfinite(r[y]) for _, _, y in kind.series)]
    xscale = "log" if kind.log_log else cfg["output.xscale"]
    yscale = "log" if kind.log_log else cfg["output.yscale"]
    # a log axis cannot show a zero or negative value: such a level is not charted
    logged = [col for _, x, y in kind.series for col, scale in ((x, xscale), (y, yscale))
              if scale == "log"]
    shown = [r for r in good if all(r[col] > 0 for col in logged)]
    if cfg["output.svg"] and len(shown) < len(good):
        dropped = ", ".join(str(r["n"]) for r in good if r not in shown)
        print(f"note: the chart leaves out n = {dropped}, zero or negative on a log axis"
              + ("" if shown else "; no SVG written"), file=sys.stderr)
    if cfg["output.svg"] and shown:
        svg_path = str(out_prefix) + ".svg"
        emit_svg([Series(label, tuple(r[x] for r in shown), tuple(r[y] for r in shown))
                  for label, x, y in kind.series],
                 AxesSpec(xlabel=kind.xlabel, ylabel=kind.ylabel, xscale=xscale,
                          yscale=yscale, title=kind.title.format(*extra.values())), svg_path)
        written.append(svg_path)
    return (2 if not good else 0), written


def plot(csv_path: str, spec: str) -> tuple[int, list[str]]:
    """Chart columns of an emitted CSV.

    `spec` is a comma-separated key=value string with keys x, y (one or more
    column names separated by '+'), xscale, yscale, out and title (the chart
    title, empty by default). Rows whose plotted values are nan are
    dropped.
    """
    opts = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"plot spec entry {part!r} is not key=value")
        key, _, value = part.partition("=")
        opts[key.strip()] = value.strip()
    for key in opts:
        if key not in ("x", "y", "xscale", "yscale", "out", "title"):
            raise ConfigError(f"unknown plot spec key {key!r}")
    if "x" not in opts or "y" not in opts or "out" not in opts:
        raise ConfigError("plot spec needs x=, y=, and out=")

    try:
        rows, _ = read_report_csv(csv_path)
    except ValueError as exc:  # a cell of a numeric column that is not a number
        raise ConfigError(f"{csv_path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"no data rows in {csv_path}")
    xcol = opts["x"]
    series = []
    for ycol in opts["y"].split("+"):
        xs, ys = [], []
        for row in rows:
            if xcol not in row or ycol not in row:
                raise ConfigError(f"column {xcol!r} or {ycol!r} not in {csv_path}")
            for col in (xcol, ycol):
                if isinstance(row[col], str):
                    raise ConfigError(f"column {col!r} is not numeric")
            xv, yv = row[xcol], row[ycol]
            if math.isfinite(xv) and math.isfinite(yv):
                xs.append(xv)
                ys.append(yv)
        series.append(Series(ycol, tuple(xs), tuple(ys)))
    try:
        axes = AxesSpec(xlabel=xcol, ylabel=opts["y"],
                        xscale=opts.get("xscale", "linear"),
                        yscale=opts.get("yscale", "linear"),
                        title=opts.get("title", ""))
        Path(opts["out"]).parent.mkdir(parents=True, exist_ok=True)
        emit_svg(series, axes, opts["out"])
    except SvgError as exc:
        raise ConfigError(str(exc)) from exc
    return 0, [opts["out"]]


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kinterp",
                                     description="kernel interpolation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="check an experiment config")
    p_val.add_argument("config")
    p_plot = sub.add_parser("plot", help="chart columns of an emitted CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("spec")
    args = parser.parse_args(argv)

    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if args.command == "validate":
            cfg = parse_config(args.config)
            for key, value in config_metadata(cfg).items():
                print(f"{key} = {value}")
            return 0
        if args.command == "run":
            code, written = run(parse_config(args.config))
        else:
            code, written = plot(args.csv, args.spec)
        for path in written:
            print(f"wrote {path}")
        if code == 2:
            print("error: every level failed numerically", file=sys.stderr)
        return code
    except (ConfigError, OSError) as exc:  # OSError: an unreadable CSV or unwritable output
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning


def main_entry() -> None:
    """Console entry point: runs `main` and exits with its code."""
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

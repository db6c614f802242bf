"""Command-line front end: configuration, persistence, plot-data emission.

Subcommand grammar::

    extomo verify <experiment> [--key value ...]
    extomo sweep <experiment> [--key value ...]
    extomo knapp lower-bounds [--key value ...]
    extomo tubes randomized [--key value ...]
    extomo extremize run --functional "xray_sup_ratio(2,inf)" ...
    extomo transform xray|radon|funk --preset cap ...
    extomo list
    extomo plot-data <report.json> [--out file.csv]

Exit codes: 0 pass, 1 tolerance failure, 2 usage or configuration error.
Each key's type is declared in ``REGISTRY``: ``int`` for counts and
``--seed``, text for names, a number (an int when its text is one, else a
float, ``inf`` included, ``nan`` not) for other values, a comma list of
numbers for ``*_list`` keys.  A value its type rejects exits 2, and so does
a key its command does not declare; every declared key is read.  Every run
writes a directory with the echoed config, the report JSON, a summary, the
version and, when the report has an ``abscissa``, the sweep CSV.  A flat
``key = value`` ``--config`` file sits below the flags.  Same config +
seed reproduces metrics byte-identically.
"""

import math
import os
import sys
from dataclasses import dataclass, field
from inspect import signature

import numpy as np

from . import __version__
from .errors import (InvalidArgumentError, NonFiniteObjectiveError,
                     PreconditionError)
from .extension import extend, extend_plane_field
from .reports import ExperimentReport, experiment_rng, fit_columns
from .sphere import make_circle_grid, make_sphere_grid, preset_density
from .spherical import funk_At
from .tomography import xray_profile
from . import experiments as X


class UsageError(Exception):
    """Configuration problem: maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """One experiment invocation: name, typed parameters, seed, output."""

    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    outdir: str = None
    tolerance_overrides: dict = field(default_factory=dict)

    def echo_lines(self):
        lines = [f"experiment = {self.experiment}", f"seed = {self.seed}"]
        if self.outdir:
            lines.append(f"out = {self.outdir}")
        for key, value in sorted(self.params.items()):
            if isinstance(value, list):
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
        for key in sorted(self.tolerance_overrides):
            lo, hi = self.tolerance_overrides[key]
            lines.append(f"tol.{key} = {lo!r},{hi!r}")
        return lines


def _number(text):
    """An int when the text is one, else a float (inf included, nan not)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if math.isnan(value):
        raise ValueError(f"nan: {text!r}")
    return value


def _numbers(text):
    """A comma list of numbers; one value is a one-element list."""
    return [_number(tok) for tok in text.split(",") if tok.strip()]


def _typed(key, kind, text):
    """The value of ``--key text`` under its declared type."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"bad-value --{key} {text!r} (expected "
                         f"{kind.__name__.lstrip('_')})") from None


def _param(key, text):
    """{key with "-" read as "_": the value's text}."""
    return {key.strip().replace("-", "_"): text.strip()}


def _parse_config_file(path):
    params = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"config-syntax {path}:{lineno} (expected key = value)")
                key, _, value = line.partition("=")
                params.update(_param(key, value))
    except OSError as exc:
        raise UsageError(f"config-unreadable {path}: {exc}") from exc
    return params


# ---------------------------------------------------------------------------
# density presets


def _preset_density(grid, preset, seed):
    rng = experiment_rng(seed, "cli:smooth-preset")
    return preset_density(grid, preset, rng)


def _default_input(n, preset, seed):
    """The preset density on the default grid in dimension n, and a
    generic unit direction."""
    if n == 2:
        grid, omega = make_circle_grid(512), np.array([0.6, 0.8])
    elif n == 3:
        grid, omega = make_sphere_grid(96, 192), np.array([0.3, -0.5, 0.8])
    else:
        raise UsageError(f"bad-dimension n = {n!r} (expected 2 or 3)")
    return _preset_density(grid, preset, seed), omega / np.linalg.norm(omega)


# ---------------------------------------------------------------------------
# experiment adapters: seed + the parameters the user gave -> ExperimentReport
#
# An adapter names only the keys it reads itself and forwards the rest, so
# every other default is the experiment's own.


def _run_xray_identity(seed, n=3, preset="cap"):
    g, omega = _default_input(n, preset, seed)
    return X.verify_xray_identity(g, omega)


def _run_radon_identity(seed, n=3, preset="cap"):
    g, omega = _default_input(n, preset, seed)
    return X.verify_radon_identity(g, omega)


def _run_mollified_radon(seed, n=2, preset="constant", **kw):
    g, omega = _default_input(n, preset, seed)
    return X.verify_mollified_radon(g, omega, **kw)


def _run_x_reduction(seed, q=1.0, preset=None):
    # q > 1 is defined for the constant density only
    preset = preset or ("constant" if q > 1 else "cap")
    g = _preset_density(make_sphere_grid(24, 48), preset, seed)
    return X.lemma_X_reduction_check(g, q=q)


def _run_reduce_lemma(seed, preset=None, **kw):
    if preset is None:
        return X.reduce_lemma_family(seed=seed, **kw)
    g = _preset_density(make_sphere_grid(24, 48), preset, seed)
    return X.verify_reduce_lemma(g, **kw)


def _run_t_delta(seed, **kw):
    return X.t_delta_log_law(**kw)[1]


def _run_radon_growth(seed, q=2.0, R_list=(16, 32, 64, 128, 256, 512, 1024),
                      preset="constant"):
    grid = make_circle_grid(max(64, int(np.ceil(2.5 * max(R_list)))))
    report = X.radon_growth_sweep(_preset_density(grid, preset, seed), q, R_list)
    report.params["preset"] = preset
    return report


def _run_bt_bounds(seed, family="constant", **kw):
    fit_half, fit_one = X.bt_bounds_sweep(family=family, seed=seed, **kw)
    report = fit_columns(
        ExperimentReport(name="bt_bounds_sweep",
                         params={"family": family, "abscissa": "log(1/delta)"}),
        fit_one, checks=(("slope", 0.0, math.inf), ("r_squared", 0.9, 1.0)))
    report.record("slope_half_norm", fit_half.slope)
    report.record("r_squared_half_norm", fit_half.r_squared)
    return report


def _run_necessity(seed, **kw):
    return X.necessity_band_example(seed=seed, **kw)[0]


def _run_power_weight(seed, p=2.0, q=4.0, r=2.0, preset="constant", **kw):
    g = _preset_density(make_sphere_grid(16, 32), preset, seed)
    return X.power_weight_ratio(g, p, q, r, **kw)


def _transform_report(transform, n, preset, ax, vals, top):
    report = ExperimentReport(name=f"transform_{transform}", params={
        "n": n, "transform": transform, "preset": preset})
    report.raw_data["abscissa"] = [float(v) for v in ax]
    report.raw_data["ordinate"] = [float(v) for v in vals]
    report.record("max_value", top)
    return report


def _run_xray(seed, n=2, preset="cap", half_width=8.0, samples=65,
              truncation=40.0):
    g, omega = _default_input(n, preset, seed)

    def line_field(pts):
        # one extend call per line: a uniform line takes the NUFFT
        return np.concatenate([np.abs(extend(g, x)) ** 2 for x in
                               np.split(pts, len(pts) // 1024)])

    prof = xray_profile(line_field, omega, half_width=half_width,
                        samples_per_axis=samples, truncation=truncation,
                        n_samples=1024)
    ax = prof.axis()
    mid = prof.values if n == 2 else prof.values[:, len(ax) // 2]
    return _transform_report("xray", n, preset, ax, mid, np.max(prof.values))


def _run_radon(seed, n=2, preset="cap", samples=1024, truncation=40.0,
               t_extent=2.0, t_pitch=0.25):
    g, omega = _default_input(n, preset, seed)
    t_grid = np.arange(-t_extent, t_extent + 1e-12, t_pitch)
    vals = [extend_plane_field(g, omega, float(t), truncation, samples)
            .integrate(lambda v: np.abs(v) ** 2) for t in t_grid]
    return _transform_report("radon", n, preset, t_grid, vals, np.max(vals))


def _run_funk(seed, preset="cap"):
    # the Funk transform at t = 0 along the equator's 64 directions, on S^2
    g, _ = _default_input(3, preset, seed)
    angles = 2.0 * np.pi * np.arange(64) / 64
    vals = [np.real(funk_At(g, np.array([np.cos(a), np.sin(a), 0.0]), 0.0))
            for a in angles]
    return _transform_report("funk", 3, preset, angles, vals, np.max(vals))


# ---------------------------------------------------------------------------
# registry

# name -> (group, runner, {parameter key: its type}, description)
REGISTRY = {
    "xray-identity": ("verify", _run_xray_identity, {"n": int, "preset": str},
                      "line transform of the squared extension vs slices"),
    "radon-identity": ("verify", _run_radon_identity,
                       {"n": int, "preset": str},
                       "hyperplane transform vs the equator-singular slice sum"),
    "mollified-radon": ("verify", _run_mollified_radon,
                        {"n": int, "preset": str, "R_list": _numbers},
                        "ball-truncated hyperplane transform bound"),
    "sharp-constant": ("verify", X.sharp_constant_S2, {},
                       "sharp line-bound constant on the 2-sphere, two paths"),
    "isometry": ("verify", X.isometry_constancy, {"n_funcs": int},
                 "half-derivative line-transform isometry constancy"),
    "wstein": ("verify", X.verify_wstein,
               {"R_list": _numbers, "C_max": _number},
               "weighted bound with direction-wise square function data"),
    "wmiztak": ("verify", X.verify_wmiztak,
                {"R_list": _numbers, "q_probe": _number, "C_max": _number},
                "weighted log-growth bound and its falsification probe"),
    "x-reduction": ("verify", _run_x_reduction, {"q": _number, "preset": str},
                    "sup-line norm vs power-weighted Lorentz norm"),
    "reduce-lemma": ("verify", _run_reduce_lemma,
                     {"eps": _number, "q": _number, "preset": str},
                     "derivative line norm vs bilinear slice functional"),
    "t-delta": ("sweep", _run_t_delta, {"delta_list": _numbers},
                "log law of the equator-singular integral"),
    "radon-growth": ("sweep", _run_radon_growth,
                     {"q": _number, "R_list": _numbers, "preset": str},
                     "log growth of the truncated hyperplane norm"),
    "outside-range": ("sweep", X.radon_outside_range_probe,
                      {"R_list": _numbers},
                      "power growth outside the admissible exponent range"),
    "bt-bounds": ("sweep", _run_bt_bounds,
                  {"delta_list": _numbers, "family": str},
                  "bilinear operator quasinorm growth in log(1/delta)"),
    "multiscale": ("sweep", X.xray_multiscale_lower_bound,
                   {"delta_list": _numbers},
                   "square-root-log lower bound for the line transform"),
    "necessity": ("sweep", _run_necessity,
                  {"delta_list": _numbers, "eps": _number},
                  "band-density scaling behind the derivative loss"),
    "power-weight": ("sweep", _run_power_weight,
                     {"p": _number, "q": _number, "r": _number,
                      "L_list": _numbers, "preset": str},
                     "power-weighted Lorentz ratio on doubling boxes"),
    "lower-bounds": ("knapp", X.knapp_radon_lower_bounds,
                     {"m": int, "delta_list": _numbers, "q": _number},
                     "cylinder-slab lower bound scalings"),
    "randomized": ("tubes", X.randomized_tube_experiment,
                   {"R": _number, "n_trials": int, "cap_scale": _number},
                   "wavepacket tube family with Khintchine averaging"),
    "run": ("extremize", X.extremize,
            {"functional": str, "steps": int, "step_size": _number},
            "projected gradient ascent of a Rayleigh quotient"),
    "xray": ("transform", _run_xray,
             {"n": int, "preset": str, "half_width": _number, "samples": int,
              "truncation": _number},
             "line transform of the squared extension, to CSV"),
    "radon": ("transform", _run_radon,
              {"n": int, "preset": str, "samples": int, "truncation": _number,
               "t_extent": _number, "t_pitch": _number},
              "hyperplane transform of the squared extension, to CSV"),
    "funk": ("transform", _run_funk, {"preset": str},
             "Funk transform of the density on the 2-sphere, to CSV"),
}

GROUPS = tuple(dict.fromkeys(v[0] for v in REGISTRY.values()))


# ---------------------------------------------------------------------------
# persistence


def _write_run_dir(config, report, outdir):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write("\n".join(config.echo_lines()) + "\n")
    with open(os.path.join(outdir, "version.txt"), "w") as fh:
        fh.write(f"extomo {__version__}\n")
    report.to_json(os.path.join(outdir, "report.json"))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(report.summary() + "\n")
    if "abscissa" in report.raw_data:
        emit_plot_data(os.path.join(outdir, "report.json"),
                       os.path.join(outdir, "sweep.csv"))


def emit_plot_data(report_path, out_path=None):
    """Write the report's sweep as CSV (abscissa, ordinate, fit_value).

    Floats are serialized with ``repr`` so re-parsing the CSV reproduces
    the in-memory values bit-exactly.
    """
    try:
        with open(report_path) as fh:
            report = ExperimentReport.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"report-unreadable {report_path}: {exc}") from exc
    raw = report.raw_data
    if "abscissa" not in raw:
        raise UsageError(f"no-sweep-data {report_path}")
    xs, ys = raw["abscissa"], raw["ordinate"]
    fit = raw.get("fit_value", [math.nan] * len(xs))
    if out_path is None:
        out_path = os.path.splitext(report_path)[0] + "_sweep.csv"
    with open(out_path, "w") as fh:
        fh.write("abscissa,ordinate,fit_value\n")
        for x, y, f in zip(xs, ys, fit):
            fh.write(f"{float(x)!r},{float(y)!r},{float(f)!r}\n")
    return out_path


# ---------------------------------------------------------------------------
# argument handling


def _collect_params(tokens):
    """Turn ['--key', 'value', ...] into {key: value text}."""
    params, rest = {}, list(tokens)
    while rest:
        tok = rest.pop(0)
        if not tok.startswith("--"):
            raise UsageError(f"unexpected-argument {tok!r}")
        key, eq, value = tok[2:].partition("=")
        if not eq:
            if not rest:
                raise UsageError(f"missing-value --{key}")
            value = rest.pop(0)
        params.update(_param(key, value))
    return params


def _build_config(name, tokens):
    group, runner, allowed, _ = REGISTRY[name]
    params = _collect_params(tokens)
    if "config" in params:  # the file sits below the flags
        params = {**_parse_config_file(params.pop("config")), **params}
    params.pop("experiment", None)
    seed = _typed("seed", int, params.pop("seed", "0"))
    outdir = params.pop("out", None)
    overrides = {}
    for key in [k for k in params if k.startswith("tol.")]:
        text = params.pop(key)
        try:  # a lone HI is -inf,HI
            pair = ([] if "," in text else [-math.inf]) + _numbers(text)
        except ValueError:
            pair = []
        if len(pair) != 2:
            raise UsageError(f"bad-tolerance {key} (expected lo,hi)")
        overrides[key[4:]] = (float(pair[0]), float(pair[1]))
    if unknown := params.keys() - allowed.keys():
        raise UsageError(
            f"unknown-parameter {sorted(unknown)} for {name} "
            f"(allowed: {sorted(allowed)})")
    params = {k: _typed(k, allowed[k], v) for k, v in params.items()}
    return RunConfig(experiment=name, params=params, seed=seed,
                     outdir=outdir, tolerance_overrides=overrides)


def _execute(config):
    group, runner, _, _ = REGISTRY[config.experiment]
    kw = {"seed": config.seed} if "seed" in signature(runner).parameters else {}
    report = runner(**config.params, **kw)
    report.params.setdefault("seed", config.seed)
    for key, (lo, hi) in config.tolerance_overrides.items():
        report.tolerances[key] = (lo, hi)
    outdir = config.outdir or os.path.join("runs", config.experiment)
    _write_run_dir(config, report, outdir)
    print(report.summary())
    print(f"run directory: {outdir}")
    return 0 if report.pass_ else 1


def _usage():
    lines = ["usage: extomo <subcommand> ...", "",
             "subcommands:"]
    for group in GROUPS:
        names = sorted(n for n, v in REGISTRY.items() if v[0] == group)
        lines.append(f"  {group:10s} {' | '.join(names)}")
    lines.append("  list       show the experiment registry")
    lines.append("  plot-data  <report.json> [--out file.csv]")
    lines.append("")
    lines.append("common flags: --seed N --out DIR --config FILE "
                 "--tol.<metric> LO,HI  plus experiment parameters as "
                 "--key value")
    return "\n".join(lines)


def run(argv):
    """Execute one CLI invocation; returns the process exit code."""
    try:
        if not argv:
            print(_usage())
            return 2
        cmd, rest = argv[0], list(argv[1:])
        if cmd in ("-h", "--help", "help"):
            print(_usage())
            return 0
        if cmd == "list":
            print(f"extomo {__version__} experiment registry:")
            for name, (group, _, allowed, desc) in sorted(
                    REGISTRY.items(), key=lambda kv: (kv[1][0], kv[0])):
                keys = ",".join(sorted(allowed)) or "-"
                print(f"  {group:9s} {name:16s} [{keys}]  {desc}")
            return 0
        if cmd == "plot-data":
            if not rest:
                raise UsageError("missing-report-path")
            params = _collect_params(rest[1:])
            if unknown := params.keys() - {"out"}:
                raise UsageError(f"unknown-parameter {sorted(unknown)} for "
                                 "plot-data (allowed: ['out'])")
            out = emit_plot_data(rest[0], params.get("out"))
            print(f"wrote {out}")
            return 0
        if cmd not in GROUPS:
            raise UsageError(f"unknown-subcommand {cmd!r}")
        if not rest:
            raise UsageError(f"missing-experiment for {cmd!r}")
        name = rest[0]
        if name not in REGISTRY or REGISTRY[name][0] != cmd:
            valid = sorted(n for n, v in REGISTRY.items() if v[0] == cmd)
            raise UsageError(f"unknown-experiment {name!r} (valid: {valid})")
        config = _build_config(name, rest[1:])
        return _execute(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, PreconditionError,
            NonFiniteObjectiveError) as exc:
        print(f"error: {type(exc).__name__} {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

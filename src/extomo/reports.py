"""Experiment reports, growth-law fits, and their serialization."""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["ExperimentReport", "GrowthFit", "fit_log_growth", "fit_columns",
           "experiment_rng"]


def experiment_rng(seed, name):
    """Counter-based generator keyed by (seed, experiment name).

    Distinct experiments sharing one seed draw from independent streams,
    so adding parallelism cannot change any experiment's randomness.
    """
    import hashlib

    digest = hashlib.sha256(name.encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key=[seed & (2 ** 64 - 1), key]))


@dataclass
class ExperimentReport:
    """Named metrics plus the parameters and seed that produced them.

    ``pass_`` is True iff every metric that has an entry in ``tolerances``
    lies within it.  Tolerance entries are (lo, hi) intervals; use
    -inf / inf for one-sided checks.
    """

    name: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    raw_data: dict = field(default_factory=dict)  # sweep abscissae/ordinates
    notes: list = field(default_factory=list)

    @property
    def pass_(self):
        for key, (lo, hi) in self.tolerances.items():
            val = self.metrics.get(key)
            if val is None or not np.isfinite(val) or not lo <= val <= hi:
                return False
        return True

    def check(self, key, value, lo=-np.inf, hi=np.inf):
        """Record a metric together with its pass interval."""
        self.metrics[key] = float(value)
        self.tolerances[key] = (float(lo), float(hi))

    def record(self, key, value):
        self.metrics[key] = float(value)

    def to_dict(self):
        d = asdict(self)
        d["pass"] = self.pass_
        return d

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True, default=_np_default)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text):
        """The report written by ``to_json``; ValueError on text that is
        not JSON or not a report object of the written shape."""
        d = json.loads(text)
        if not isinstance(d, dict) or "name" not in d or (
                d.keys() - {f.name for f in fields(cls)} - {"pass"}):
            raise ValueError("not a report object: expected a JSON object "
                             "with a name and only report fields")
        if problem := _shape_problem(d):
            raise ValueError(f"not a report object: {problem}")
        d.pop("pass", None)
        d["tolerances"] = {k: tuple(v) for k, v in d.get("tolerances", {}).items()}
        return cls(**d)

    def summary(self):
        lines = [f"[{'PASS' if self.pass_ else 'FAIL'}] {self.name}"]
        for key in sorted(self.metrics):
            line = f"  {key} = {self.metrics[key]:.6g}"
            if key in self.tolerances:
                lo, hi = self.tolerances[key]
                line += f"  (allowed [{lo:.3g}, {hi:.3g}])"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _shape_problem(d):
    """What in the report object d has a shape ``to_json`` never writes, or
    None: the dict fields, the (lo, hi) tolerances and the sweep columns."""
    for key in ("params", "metrics", "tolerances", "raw_data"):
        if not isinstance(d.get(key, {}), dict):
            return f"{key} must be an object"
    if not all(isinstance(v, list) and len(v) == 2
               for v in d.get("tolerances", {}).values()):
        return "every tolerance must be a [lo, hi] pair"
    raw = d.get("raw_data", {})
    if "abscissa" in raw:
        sweep = [raw["abscissa"], raw.get("ordinate")] + (
            [raw["fit_value"]] if "fit_value" in raw else [])
        if not all(isinstance(c, list) and len(c) == len(sweep[0])
                   and all(isinstance(v, (int, float)) for v in c)
                   for c in sweep):
            return ("a sweep needs abscissa and ordinate (and any fit_value) "
                    "as lists of numbers of one length")
    return None


def _np_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class GrowthFit:
    """Least-squares line through (abscissa, ordinate) sweep data."""

    abscissae: np.ndarray
    ordinates: np.ndarray
    slope: float
    intercept: float
    r_squared: float

    def predicted(self):
        return self.intercept + self.slope * np.asarray(self.abscissae)


def fit_log_growth(abscissae, ordinates):
    """Fit ordinate ~ a + b * abscissa and report r^2."""
    x = np.asarray(abscissae, dtype=float)
    y = np.asarray(ordinates, dtype=float)
    if np.unique(x).size < 2:
        raise InvalidArgumentError("a growth fit needs at least two distinct "
                                   f"abscissae, got {x.tolist()}")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return GrowthFit(abscissae=x, ordinates=y, slope=float(slope),
                     intercept=float(intercept), r_squared=min(r2, 1.0))


def fit_columns(report, fit, checks=None):
    """Put a GrowthFit's abscissa, ordinate and fit_value plot columns in
    the report's raw data.

    With ``checks``, a tuple of (metric, lo, hi), also record the fit's
    slope, intercept and r_squared and check each named metric.
    """
    report.raw_data["abscissa"] = [float(v) for v in fit.abscissae]
    report.raw_data["ordinate"] = [float(v) for v in fit.ordinates]
    report.raw_data["fit_value"] = [float(v) for v in fit.predicted()]
    if checks is not None:
        report.record("slope", fit.slope)
        report.record("intercept", fit.intercept)
        report.record("r_squared", fit.r_squared)
        for key, lo, hi in checks:
            report.check(key, report.metrics[key], lo=lo, hi=hi)
    return report

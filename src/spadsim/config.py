"""Scenario kinds and their JSON config files.

A config names one scenario kind, a seed, a detector (preset name or inline
parameter object) per detector slot, the kind's sections, and the output
files to write. SCENARIOS declares each kind once; each section takes its
keys, defaults and types from the dataclass or experiment driver that
defines those fields, and an inline detector from DetectorParams and the
dataclasses it nests. Validation is strict: unknown keys are rejected, no
bool passes for a number nor a float for an integer, and every error names
the field path, so a typo can never silently fall back to a default.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import dataclass, is_dataclass
from functools import cached_property
from types import UnionType
from typing import Annotated, Callable, get_args, get_origin

from .analysis import (
    KeyRateInputs, distinguishability, secret_key_rate, shift_and_jitter_vs_dt, twilight_curve
)
from .detector import DRAW_CONTRACT, DetectorParams
from .experiments import PairScan, run_autocorr, run_interarrival, run_pair_scan
from .presets import available_presets, preset
from .instruments import _check, _check_args, _check_bins
from .qkd import FrameConfig, check_rep_rate, correlator_grids, run_qkd_scenario
from .sources import CwSourceConfig, EntangledPairConfig, PulsedSourceConfig

__all__ = ["ConfigError", "KINDS", "SCENARIOS", "load_config", "validate_config"]

CONFIG_VERSION = 1

_REQUIRED = inspect.Parameter.empty
_ACCEPTS = {int: int, float: (int, float), bool: bool, str: str}
_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
# The most bins a histogram or correlator grid may hold: a run takes about 27 MB
# per 2**20 bins (an autocorr run writing its CSV), so 2**24 bins about 0.45 GB.
_MAX_BINS = 2**24


class ConfigError(Exception):
    """A scenario config is malformed; the message names the field."""


def _err(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _mapping(v, path: str) -> dict:
    if not isinstance(v, dict):
        _err(path, "must be an object")
    return v


def _known(d: dict, allowed, path: str) -> None:
    unknown = [k for k in d if k not in allowed]
    if unknown:
        keys = ", ".join(repr(k) for k in sorted(unknown))
        _err(path, f"unknown key(s) {keys}; allowed: {', '.join(sorted(allowed))}")


def _field(d: dict, key: str, path: str):
    if key not in d:
        _err(path + "." + key, "is required")
    return d[key]


def _values(d, fields: dict, path: str) -> dict:
    """The keys d gives, each checked against its field; a required field must be given."""
    d = _mapping(d, path)
    _known(d, fields, path)
    vals = {}
    for key, (tp, default) in fields.items():
        if key in d:
            vals[key] = _typed(d[key], tp, f"{path}.{key}")
        elif default is _REQUIRED:
            _err(f"{path}.{key}", "is required")
    return vals


def _typed(v, tp, path: str, int64=True):
    """v checked against the type hint tp and, if int64, int64's range; domains that
    tp declares are left to the owner."""
    if get_origin(tp) is Annotated:
        tp = get_args(tp)[0]
    if isinstance(tp, UnionType):  # `X | None`: null stands for the default
        if v is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):  # an object with the dataclass's keys; omitted keys take its defaults
        return _built(path, tp, **_values(v, Section(path, tp).fields, path))
    if get_origin(tp) is tuple:  # a Curve: [[x, y], ...]
        if not isinstance(v, list) or not all(isinstance(p, list) and len(p) == 2 for p in v):
            _err(path, f"must be a list of [x, y] number pairs, got {v!r}")
        return tuple(
            tuple(_typed(x, float, f"{path}[{i}][{j}]") for j, x in enumerate(p))
            for i, p in enumerate(v)
        )
    if get_origin(tp) is not None:  # Sequence[int]
        if not isinstance(v, list) or not v:
            _err(path, "must be a non-empty list of integers")
        return [_typed(x, int, f"{path}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, bool) != (tp is bool) or not isinstance(v, _ACCEPTS[tp]):
        _err(path, f"must be {_NAMES[tp]}, got {v!r}")
    if tp is float:
        # json.load reads NaN, Infinity and integers past the float range.
        if not -sys.float_info.max <= v <= sys.float_info.max:
            _err(path, f"must be a finite number, got {v}")
        v = float(v)
    if tp is int and int64 and not -(2**63) <= v < 2**63:
        _err(path, f"must lie in [-2**63, 2**63), got {v}")
    return v


def _built(path: str, owner, /, *args, **kwargs):
    """owner(*args, **kwargs), a section object or a check's result; a ValueError
    becomes a ConfigError at the field it starts with, under path."""
    try:
        return owner(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


@dataclass(frozen=True)
class Section:
    """One config section, read off the code that defines its fields.

    `owner` is a dataclass (its fields, checked when it is built) or a
    function (its keyword-only parameters, checked here against the
    domains their annotations declare). The section's fields, defaults
    included, spread into the flat config; a dataclass section's object,
    built once here, also sits under the section's name.
    """

    name: str
    owner: object = None

    @cached_property
    def fields(self) -> dict:
        """Key -> (type hint, default or _REQUIRED)."""
        if self.owner is None:
            return {}
        params = inspect.signature(self.owner, eval_str=True).parameters.values()
        is_class = isinstance(self.owner, type)
        return {
            p.name: (p.annotation, p.default)
            for p in params
            if is_class or p.kind is p.KEYWORD_ONLY
        }

    def parse(self, doc: dict, norm: dict) -> None:
        required = any(d is _REQUIRED for _, d in self.fields.values())
        d = doc.get(self.name, {}) if not required else _field(doc, self.name, "config")
        vals = _values(d, self.fields, self.name)
        vals = {key: vals.get(key, default) for key, (_, default) in self.fields.items()}
        if isinstance(self.owner, type):
            norm[self.name] = _built(self.name, self.owner, **vals)
        elif self.owner is not None:
            _built(self.name, _check_args, self.owner, vals)
        norm.update(vals)


@dataclass(frozen=True)
class Kind:
    """A scenario kind; `run` maps its config to (stdout key/value pairs, {output: content}),
    each content a text or a Histogram, written as CSV (`Histogram.write_csv`)."""

    sections: tuple
    outputs: tuple
    run: Callable
    rule: Callable | None = None
    detectors: tuple = ("detector",)


def _parse_detector(doc: dict, key: str) -> DetectorParams:
    d = _mapping(_field(doc, key, "config"), key)
    _known(d, ("preset", "variant", "params"), key)
    if ("preset" in d) == ("params" in d):
        _err(key, "needs exactly one of 'preset' or 'params'")
    if "preset" in d:
        name = _typed(d["preset"], str, key + ".preset")
        variant = _typed(d["variant"], str, key + ".variant") if "variant" in d else None
        try:
            return preset(name, variant=variant).params
        except ValueError as exc:
            _err(key + (".variant" if name in available_presets() else ".preset"), str(exc))
    return _typed(d["params"], DetectorParams, key + ".params")


def _fits_in_memory(path: str, n_bins: int) -> None:
    """A grid of n_bins bins is one a run can hold in memory (see _MAX_BINS)."""
    if n_bins > _MAX_BINS:
        _err(path, f"asks for {n_bins} bins, more than 2**24")


def _span_whole_bins(cfg: dict) -> None:
    """The histogram span, given or run_interarrival's 4096 bins, is one build_histogram
    takes, in at most _MAX_BINS bins."""
    bw, span = cfg["bin_width_ps"], cfg["span_ps"]
    span = 4096 * bw if span is None else span
    _built("instrument", _check_bins, bw, span)
    _fits_in_memory("instrument.span_ps", span // bw)


def _two_bins_per_period(path: str, bin_width_ps: int, period_ps: float, period: str) -> None:
    """The visibility reads peak and valley bins, so a pulse period spans two bins or more."""
    if period_ps < 2 * bin_width_ps:
        _err(path, f"must be at most half of {period}")


def _qkd_grids(cfg: dict) -> None:
    """The rep rate is the one the frame's bin width implies, to 2%, the
    autocorrelator bin, given or by default, fits the period, and neither
    correlator holds more than _MAX_BINS bins."""
    rep_rate, bw = cfg["source"].rep_rate_hz, cfg["frame"].bin_width_ps
    _built("source", check_rep_rate, rep_rate, bw)
    grids = _built("instrument", correlator_grids, **_args(cfg, correlator_grids))
    ac_bw, ac_span, cc_bw, cc_span = grids
    _fits_in_memory("instrument.ac_span_ps", ac_span // ac_bw)
    _fits_in_memory("instrument.cc_span_ps", 2 * cc_span // cc_bw)
    period = 1.0e12 / rep_rate
    about = f"the pulse period ({period} ps for frame.bin_width_ps {bw}), got {ac_bw}"
    about += "; the default is frame.bin_width_ps // 8, at least 1"
    _two_bins_per_period("instrument.ac_bin_width_ps", ac_bw, period, about)


def _lag_covers_bin(cfg: dict) -> None:
    """The lag span holds a bin and at most _MAX_BINS of them, and the pulse period holds
    two bins for the visibility."""
    bw = cfg["bin_width_ps"]
    if cfg["max_lag_ps"] < bw:
        _err("instrument.max_lag_ps", f"must be >= bin_width_ps ({bw})")
    _fits_in_memory("instrument.max_lag_ps", cfg["max_lag_ps"] // bw)
    period = cfg["source"].period_ps
    _two_bins_per_period("instrument.bin_width_ps", bw, period, f"period_ps ({period})")


def _args(cfg: dict, owner) -> dict:
    """The entries of cfg owner takes by name: a dataclass section's object, or flat fields."""
    return {k: cfg[k] for k in inspect.signature(owner).parameters if k in cfg}


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _or_null(values: list) -> list:
    """values with each NaN, a point without enough data, written as JSON null."""
    return [None if math.isnan(v) else v for v in values]


def _detector_json(summary: dict) -> str:
    """The summary of a kind that runs a detector, stamped with its draw contract."""
    return _json({**summary, "draw_contract": DRAW_CONTRACT})


def _run_interarrival(cfg: dict):
    res = run_interarrival(cfg["detector"], **_args(cfg, run_interarrival))
    summary = {"n_pulses": res.n_pulses, "detected_rate_cps": res.detected_rate_cps}
    summary["cause_counts"] = res.cause_counts
    if res.dead_time_ps is not None:
        summary["dead_time_ps"] = res.dead_time_ps
    if (ap := res.afterpulse) is not None:
        summary.update(p_afterpulse=ap.p_afterpulse, tau_trap_ps=ap.tau_trap_ps)
        summary["fit_residual"] = ap.residual
    keys = ("n_pulses", "detected_rate_cps", "dead_time_ps", "p_afterpulse", "tau_trap_ps")
    lines = [(k, summary[k]) for k in keys if k in summary]
    lines += [(f"cause_{cause}", n) for cause, n in res.cause_counts.items()]
    return lines, {"histogram_csv": res.histogram, "summary_json": _detector_json(summary)}


def _run_pair_scan(cfg: dict):
    points = run_pair_scan(cfg["detector"], **_args(cfg, run_pair_scan))
    curve = twilight_curve([(p.delta_t_ps, p.n_pairs, p.n_first, p.n_both) for p in points])
    dts, ratios = curve.delta_ts.tolist(), curve.ratios.tolist()
    summary = {"delta_ts_ps": dts, "ratios": _or_null(ratios)}
    for key in ("n_pairs", "n_first", "n_both"):
        summary[key] = [getattr(p, key) for p in points]
    lines = [("n_points", len(points))]
    lines += [(f"ratio_{dt}", r) for dt, r in zip(dts, ratios)]
    rows = "".join(f"{p.delta_t_ps},{p.n_pairs},{p.n_first},{p.n_both}\n" for p in points)
    texts = {"curve_csv": curve.to_csv(), "summary_json": _detector_json(summary)}
    texts["points_csv"] = "delta_t_ps,n_pairs,n_first,n_both\n" + rows
    return lines, texts


def _run_jitter_scan(cfg: dict):
    points = run_pair_scan(cfg["detector"], **_args(cfg, run_pair_scan))
    pairs = [(p.delta_t_ps, p.intervals) for p in points]
    curve = shift_and_jitter_vs_dt(pairs, **_args(cfg, shift_and_jitter_vs_dt))
    dts, shifts, fwhms = curve.delta_ts.tolist(), curve.shifts.tolist(), curve.fwhms.tolist()
    summary = {"delta_ts_ps": dts, "shift_ps": _or_null(shifts), "fwhm_ps": _or_null(fwhms)}
    lines = [("n_points", len(points))]
    for dt, s, f in zip(dts, shifts, fwhms):
        lines += [(f"shift_{dt}", s), (f"fwhm_{dt}", f)]
    return lines, {"curve_csv": curve.to_csv(), "summary_json": _detector_json(summary)}


def _run_autocorr(cfg: dict):
    res = run_autocorr(cfg["detector"], **_args(cfg, run_autocorr))
    summary = {"n_pulses": res.n_pulses, "detected_rate_cps": res.detected_rate_cps}
    summary["visibility"] = distinguishability(res.histogram, float(cfg["source"].period_ps))
    outputs = {"histogram_csv": res.histogram, "summary_json": _detector_json(summary)}
    return list(summary.items()), outputs


def _run_qkd(cfg: dict):
    args = _args(cfg, run_qkd_scenario)
    report = run_qkd_scenario(det_a=cfg["detector_a"], det_b=cfg["detector_b"], **args)
    summary = report.to_json_dict()
    outputs = {"report_json": _detector_json(summary), "crosscorr_csv": report.crosscorr}
    return sorted(summary.items()), outputs


def _run_keyrate(cfg: dict):
    inputs = cfg["inputs"]
    rate = secret_key_rate(inputs)
    if not math.isfinite(rate):
        _err("inputs", f"the key rate comes out as {rate}, not a finite number")
    summary = {**vars(inputs), "key_rate_bits_per_s": rate}
    return [("key_rate_bits_per_s", rate)], {"summary_json": _json(summary)}


SCENARIOS = {
    "interarrival": Kind(
        (Section("source", CwSourceConfig), Section("instrument", run_interarrival)),
        ("histogram_csv", "summary_json"), _run_interarrival, _span_whole_bins,
    ),
    "jitter-scan": Kind(
        (Section("source", PairScan), Section("instrument", shift_and_jitter_vs_dt)),
        ("curve_csv", "summary_json"), _run_jitter_scan,
    ),
    "pair-scan": Kind(
        (Section("source", PairScan), Section("instrument")),
        ("curve_csv", "points_csv", "summary_json"), _run_pair_scan,
    ),
    "autocorr": Kind(
        (Section("source", PulsedSourceConfig), Section("instrument", run_autocorr)),
        ("histogram_csv", "summary_json"), _run_autocorr, _lag_covers_bin,
    ),
    "qkd": Kind(
        (
            Section("source", EntangledPairConfig),
            Section("frame", FrameConfig),
            Section("instrument", run_qkd_scenario),
        ),
        ("report_json", "crosscorr_csv"), _run_qkd, _qkd_grids,
        detectors=("detector_a", "detector_b"),
    ),
    "keyrate": Kind(
        (Section("inputs", KeyRateInputs),),
        ("summary_json",), _run_keyrate, detectors=(),
    ),
}

KINDS = tuple(SCENARIOS)


def validate_config(doc) -> dict:
    """Validate a parsed config document and normalize it for the runner.

    Returns a dict with kind, seed, live parameter objects, filled-in
    defaults, and the declared outputs. Each section's fields sit flat in
    the dict; a dataclass section's object also sits under its name.
    Raises ConfigError naming the field on the first problem found.
    """
    doc = _mapping(doc, "config")
    version = _typed(_field(doc, "version", "config"), int, "version")
    if version != CONFIG_VERSION:
        _err("version", f"unsupported config version {version}, expected {CONFIG_VERSION}")
    name = _typed(_field(doc, "kind", "config"), str, "kind")
    if name not in SCENARIOS:
        _err("kind", f"unknown kind {name!r}; expected one of {', '.join(KINDS)}")
    kind = SCENARIOS[name]
    # A seed only feeds SeedSequence, which takes integers of any size.
    seed = _typed(_field(doc, "seed", "config"), int, "seed", int64=False)
    _built("config", _check, "seed", ">= 0", seed)
    norm = {"kind": name, "seed": seed}
    sections = {s.name for s in kind.sections}
    _known(doc, {"version", "kind", "seed", "outputs", *kind.detectors, *sections}, "config")
    for slot in kind.detectors:
        norm[slot] = _parse_detector(doc, slot)
    for section in kind.sections:
        section.parse(doc, norm)
    if kind.rule is not None:
        kind.rule(norm)
    outputs = _mapping(doc.get("outputs", {}), "outputs")
    _known(outputs, kind.outputs, "outputs")
    norm["outputs"] = {k: _typed(v, str, f"outputs.{k}") for k, v in outputs.items()}
    return norm


def load_config(path: str) -> dict:
    """Read and validate a JSON scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(doc)

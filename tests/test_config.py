import copy
import inspect
import json
import math
import re
import sys
from dataclasses import is_dataclass, replace
from typing import get_args, get_type_hints

import pytest
from conftest import as_json, inline_detector

from spadsim import (
    KINDS,
    AfterpulseModel,
    BlankingConfig,
    ConfigError,
    CwSourceConfig,
    DetectorParams,
    EntangledPairConfig,
    FrameConfig,
    KeyRateInputs,
    PairScan,
    PairScanConfig,
    PulsedSourceConfig,
    correlator_grids,
    load_config,
    preset,
    shift_and_jitter_vs_dt,
    validate_config,
)
from spadsim import experiments
from spadsim.cli import main
from spadsim.config import SCENARIOS
from spadsim.instruments import _declared, _domain


def base(kind, **extra):
    doc = {"version": 1, "kind": kind, "seed": 7}
    doc.update(extra)
    return doc


INTERARRIVAL = base(
    "interarrival",
    detector={"preset": "spcm-aqrh"},
    source={"rate_cps": 50_000.0, "duration_ps": 1_000_000_000},
    outputs={"histogram_csv": "h.csv", "summary_json": "s.json"},
)

PAIR_SOURCE = {"delta_ts_ps": [20_000, 40_000], "pair_period_ps": 1_000_000, "n_pairs": 500}

QKD = base(
    "qkd",
    detector_a={"preset": "custom-aq"},
    detector_b={"preset": "spd-050", "variant": "ttl"},
    source={"rep_rate_hz": 1.92e9, "mean_pairs_per_pulse": 0.01, "duration_ps": 1_000_000},
    frame={"bin_width_ps": 521},
    outputs={"report_json": "r.json"},
)


PRESET_VARIANTS = [
    ("spcm-aqrh", None), ("spd-050", "timing"), ("spd-050", "ttl"), ("custom-aq", None)
]


def with_params(**changes):
    """INTERARRIVAL with custom-aq's inline params, top-level keys replaced by changes."""
    params = dict(as_json(preset("custom-aq").params), **changes)
    return dict(INTERARRIVAL, detector={"params": params})


class TestValidDocuments:
    def test_interarrival_defaults(self):
        norm = validate_config(INTERARRIVAL)
        assert norm["kind"] == "interarrival"
        assert norm["seed"] == 7
        assert norm["bin_width_ps"] == 1000
        assert norm["span_ps"] is None
        assert norm["analyze"] is True
        assert norm["tau_trap_guess_ps"] == 32000.0
        assert isinstance(norm["detector"], DetectorParams)
        assert norm["outputs"] == {"histogram_csv": "h.csv", "summary_json": "s.json"}

    def test_detector_inline_params(self):
        for name, variant in PRESET_VARIANTS:
            p = preset(name, variant=variant).params
            assert inline_detector(as_json(p)) == p

    def test_inline_params_defaults(self):
        required = {"efficiency": 0.5, "tau_dead0_ps": 24000, "tau_quench_ps": 10000}
        norm = validate_config(dict(INTERARRIVAL, detector={"params": required}))
        assert norm["detector"] == DetectorParams(**required)
        doc = dict(INTERARRIVAL, detector={"params": dict(required, afterpulse={}, blanking={})})
        params = validate_config(doc)["detector"]
        assert params.afterpulse == AfterpulseModel()
        assert params.blanking == BlankingConfig(t_b_ps=24000)

    @pytest.mark.parametrize("kind", ["pair-scan", "jitter-scan"])
    def test_pair_scan_family(self, kind):
        outputs = {"curve_csv": "c.csv"}
        if kind == "pair-scan":
            outputs["points_csv"] = "p.csv"
        doc = base(kind, detector={"preset": "spcm-aqrh"}, source=dict(PAIR_SOURCE), outputs=outputs)
        norm = validate_config(doc)
        assert norm["delta_ts_ps"] == [20_000, 40_000]
        assert norm["occupancy"] == 1.0
        if kind == "jitter-scan":
            assert norm["min_pairs"] == 1000

    def test_autocorr(self):
        doc = base(
            "autocorr",
            detector={"preset": "spcm-aqrh"},
            source={"period_ps": 521, "mean_photons_per_pulse": 0.01, "duration_ps": 10_000_000},
            instrument={"max_lag_ps": 60_000, "bin_width_ps": 100},
            outputs={"histogram_csv": "h.csv"},
        )
        norm = validate_config(doc)
        assert norm["pulse_fwhm_ps"] == 0
        assert norm["max_lag_ps"] == 60_000

    def test_qkd_defaults(self):
        norm = validate_config(QKD)
        assert norm["bins_per_frame"] == 1024
        assert norm["eta_alice"] == 1.0 and norm["eta_bob"] == 1.0
        assert norm["emission_fwhm_ps"] == 0
        for key in ("ac_bin_width_ps", "ac_span_ps", "cc_bin_width_ps", "cc_span_ps"):
            assert norm[key] is None
        assert norm["detector_b"].tau_dead0_ps == 78_000

    def test_keyrate(self):
        doc = base(
            "keyrate",
            inputs={"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001, "bin_width_ps": 260},
            outputs={"summary_json": "s.json"},
        )
        norm = validate_config(doc)
        assert norm["m_channels"] == 8
        assert norm["bin_width_ps"] == 260.0

    def test_keyrate_bin_width_only_needs_to_be_positive(self):
        # The config takes every bin width that `spadsim keyrate --bin-ps` takes.
        inputs = {"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001, "bin_width_ps": 1e-13}
        assert validate_config(base("keyrate", inputs=inputs))["bin_width_ps"] == 1e-13


class TestRejections:
    def check(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            validate_config(doc)

    def test_not_a_mapping(self):
        self.check([1, 2], "config")

    def test_version(self):
        self.check(dict(INTERARRIVAL, version=2), "version")
        doc = dict(INTERARRIVAL)
        del doc["version"]
        self.check(doc, "version")

    def test_kind(self):
        self.check(dict(INTERARRIVAL, kind="interarrivals"), "kind")

    def test_seed_required_and_typed(self):
        doc = dict(INTERARRIVAL)
        del doc["seed"]
        self.check(doc, "seed")
        self.check(dict(INTERARRIVAL, seed=-1), "seed")
        self.check(dict(INTERARRIVAL, seed=True), "seed")
        self.check(dict(INTERARRIVAL, seed=1.5), "seed")

    def test_unknown_keys_named(self):
        self.check(dict(INTERARRIVAL, extra=1), "extra")
        doc = dict(INTERARRIVAL, source={"rate_cps": 1.0, "duration_ps": 1, "rate_hz": 2.0})
        self.check(doc, "rate_hz")

    def test_detector_exactly_one_spec(self):
        self.check(dict(INTERARRIVAL, detector={}), "exactly one")
        both = {"preset": "spcm-aqrh", "params": as_json(preset("spcm-aqrh").params)}
        self.check(dict(INTERARRIVAL, detector=both), "exactly one")
        self.check(dict(INTERARRIVAL, detector={"preset": "nope"}), "detector.preset")

    def test_preset_variant_is_checked(self):
        spcm = dict(INTERARRIVAL, detector={"preset": "spcm-aqrh", "variant": "bogus"})
        self.check(spcm, r"^detector\.variant: preset 'spcm-aqrh' has no variants, got 'bogus'")
        spd = dict(INTERARRIVAL, detector={"preset": "spd-050", "variant": "bogus"})
        self.check(spd, r"^detector\.variant: unknown spd-050 variant 'bogus'")

    def test_params_bool_for_number(self):
        self.check(with_params(efficiency=True), r"^detector\.params\.efficiency: must be a number")
        mu = with_params(afterpulse={"mu": True})
        self.check(mu, r"^detector\.params\.afterpulse\.mu: must be a number, got True")

    def test_params_float_for_integer(self):
        self.check(with_params(tau_dead0_ps=29100.7), r"^detector\.params\.tau_dead0_ps: must be an")
        t_b = with_params(blanking={"t_b_ps": 24000.5})
        self.check(t_b, r"^detector\.params\.blanking\.t_b_ps: must be an integer")

    def test_params_string_for_number(self):
        self.check(with_params(base_delay_ps="9000"), r"^detector\.params\.base_delay_ps: must be")

    def test_detector_params_unknown_keys(self):
        self.check(with_params(efficency=0.5), r"^detector\.params: unknown key\(s\) 'efficency'")
        ap = with_params(afterpulse={"lifetime": 1.0})
        self.check(ap, r"^detector\.params\.afterpulse: unknown key\(s\) 'lifetime'")
        blanking = with_params(blanking={"t_b_ps": 24000, "width_ps": 1})
        self.check(blanking, r"^detector\.params\.blanking: unknown key\(s\) 'width_ps'")

    def test_params_curve_points_are_number_pairs(self):
        triple = with_params(jitter_curve=[[30000.0, 600.0, 1.0]])
        self.check(triple, r"^detector\.params\.jitter_curve: must be a list of \[x, y\] number")
        self.check(with_params(shift_curve=[0.0, 0.0]), r"^detector\.params\.shift_curve: must be")
        text = with_params(jitter_curve=[[30000.0, "600"]])
        self.check(text, r"^detector\.params\.jitter_curve\[0\]\[1\]: must be a number")

    def test_params_afterpulse_not_null(self):
        self.check(with_params(afterpulse=None), r"^detector\.params\.afterpulse: must be an object")

    def test_params_validate_names_full_path(self):
        bad_b = dict(QKD, detector_b=with_params(efficiency=1.5)["detector"])
        self.check(bad_b, r"^detector_b\.params\.efficiency must lie in \[0, 1\], got 1\.5")
        mu = with_params(afterpulse={"mu": -1.0})
        self.check(mu, r"^detector\.params\.afterpulse\.mu must be >= 0")

    def test_non_finite_numbers_rejected(self):
        # NaN passes every bound check, and no summary JSON may carry it; an
        # integer past the float range is as far from finite.
        for bad in (float("nan"), float("inf"), 10**400):
            doc = dict(INTERARRIVAL, source={"rate_cps": bad, "duration_ps": 1000})
            self.check(doc, rf"^source\.rate_cps: must be a finite number, got {bad}")

    def test_float_duration_rejected(self):
        doc = dict(INTERARRIVAL, source={"rate_cps": 1.0, "duration_ps": 1e9})
        self.check(doc, "duration_ps")

    def test_outputs_checked(self):
        self.check(dict(INTERARRIVAL, outputs={"histogram": "h.csv"}), "histogram")
        self.check(dict(INTERARRIVAL, outputs={"summary_json": 3}), "summary_json")

    def test_span_multiple_of_bin(self):
        doc = dict(INTERARRIVAL, instrument={"bin_width_ps": 1000, "span_ps": 2500})
        self.check(doc, "span_ps")

    def test_autocorr_period_holds_two_bins(self):
        doc = copy.deepcopy(MINIMAL["autocorr"])
        doc["source"]["period_ps"] = 1500
        doc["instrument"]["bin_width_ps"] = 1000
        self.check(doc, r"^instrument\.bin_width_ps: must be at most half of period_ps \(1500\)")

    def test_pair_scan_spacings(self):
        src = dict(PAIR_SOURCE, delta_ts_ps=[])
        doc = base("pair-scan", detector={"preset": "spcm-aqrh"}, source=src)
        self.check(doc, "delta_ts_ps")
        src = dict(PAIR_SOURCE, delta_ts_ps=[20_000, 2_000_000])
        doc = base("pair-scan", detector={"preset": "spcm-aqrh"}, source=src)
        self.check(doc, "pair_period_ps")
        src = dict(PAIR_SOURCE, n_pairs=0)
        doc = base("pair-scan", detector={"preset": "spcm-aqrh"}, source=src)
        self.check(doc, r"^source\.n_pairs must be >= 1, got 0$")

    def test_jitter_scan_instrument_scoping(self):
        doc = base(
            "pair-scan",
            detector={"preset": "spcm-aqrh"},
            source=dict(PAIR_SOURCE),
            instrument={"min_pairs": 10},
        )
        self.check(doc, "min_pairs")

    def test_qkd_rep_rate_must_match_frame(self):
        doc = dict(QKD, source=dict(QKD["source"], rep_rate_hz=1.0e9))
        self.check(doc, r"^source\.rep_rate_hz 1e\+09 does not match the 521 ps bin width")

    def test_qkd_frame_validated(self):
        doc = dict(QKD, frame={"bin_width_ps": 521, "bins_per_frame": 1000})
        self.check(doc, "frame")

    def test_keyrate_inputs_required(self):
        doc = base("keyrate", inputs={"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001})
        self.check(doc, "bin_width_ps")
        doc = base(
            "keyrate",
            inputs={"m_channels": 8, "eta": 1.5, "n_mean": 1.0, "xi": 0.001, "bin_width_ps": 1},
        )
        self.check(doc, "eta")


# One bad field per parameter dataclass: a valid instance, the field, a bad value.
BAD_FIELDS = [
    (AfterpulseModel(), "tau_trap_ps", 0.0),
    (BlankingConfig(), "t_b_ps", 0),
    (preset("spcm-aqrh").params, "dark_rate_cps", -1.0),
    (CwSourceConfig(rate_cps=1.0, duration_ps=1), "duration_ps", 0),
    (PulsedSourceConfig(period_ps=521, mean_photons_per_pulse=0.1, duration_ps=1), "period_ps", 0),
    (PairScanConfig(delta_t_ps=1, pair_period_ps=2, n_pairs=1), "occupancy", 0.0),
    (EntangledPairConfig(rep_rate_hz=1e9, mean_pairs_per_pulse=0.1, duration_ps=1), "eta_bob", 2.0),
    (FrameConfig(bin_width_ps=521), "bins_per_frame", 1000),
    (KeyRateInputs(m_channels=1, eta=1.0, n_mean=1.0, xi=1.0, bin_width_ps=1.0), "xi", -1.0),
]


# Checks across fields: a scan past the time budget of 2**61 ps, a spacing given twice.
BAD_SPANS = [
    pytest.param(PairScanConfig(1, 2**60, 1), "n_pairs", 2, id="PairScanConfig-span"),
    pytest.param(PairScan([1, 2], 3, 1), "delta_ts_ps", [1, 2, 1], id="PairScan-repeat"),
]
# Times past 2**61 ps and delays or lengths past 2**58 ps, the time budget.
PAST_BUDGET = [
    pytest.param(CwSourceConfig(rate_cps=1.0, duration_ps=1), "duration_ps", 2**61, id="duration"),
    pytest.param(PulsedSourceConfig(521, 0.1, 1), "pulse_fwhm_ps", 2**58, id="pulse-width"),
    pytest.param(EntangledPairConfig(1e9, 0.1, 1), "emission_fwhm_ps", 2**58, id="emission-width"),
    pytest.param(BlankingConfig(), "t_b_ps", 2**58, id="t_b"),
    pytest.param(preset("spcm-aqrh").params, "base_delay_ps", 2**58, id="base-delay"),
    # The frame length, bins_per_frame * bin_width_ps, is a time and must lie in the budget.
    pytest.param(FrameConfig(bin_width_ps=521), "bins_per_frame", 2**52, id="frame-length"),
]
# NaN fails every check; so do a rate past 1e12 cps, whose mean gap is finer
# than the 1 ps time grid, afterpulsing that never dies out (about 2.2 live
# traps per avalanche), and a trap mean or a source's expected emissions that
# reach 2**62, past which numpy's Poisson draw fails.
NAN = float("nan")
INF = float("inf")
NEVER_ENDING = AfterpulseModel(mu=3.0, tau_trap_ps=1e5)
MORE_CHECKS = [
    pytest.param(AfterpulseModel(mu=0.1), "tau_trap_ps", NAN, id="nan-tau_trap"),
    pytest.param(AfterpulseModel(), "mu", NAN, id="nan-mu"),
    pytest.param(AfterpulseModel(), "mu", 2.0**62, id="trap-mean"),
    pytest.param(preset("spcm-aqrh").params, "tau_dead0_ps", NAN, id="nan-tau-dead0"),
    pytest.param(preset("spcm-aqrh").params, "dark_rate_cps", NAN, id="nan-dark-rate"),
    pytest.param(preset("spcm-aqrh").params, "dark_rate_cps", INF, id="inf-dark-rate"),
    pytest.param(CwSourceConfig(1.0, 1), "rate_cps", NAN, id="nan-rate"),
    pytest.param(CwSourceConfig(1.0, 1), "rate_cps", INF, id="inf-rate"),
    pytest.param(CwSourceConfig(1.0, 1), "rate_cps", 1.0e18, id="sub-ps-rate"),
    pytest.param(KeyRateInputs(1, 1.0, 1.0, 1.0, 1.0), "xi", NAN, id="nan-xi"),
    pytest.param(preset("spcm-aqrh").params, "afterpulse", NEVER_ENDING, id="afterpulse-chains"),
    pytest.param(PulsedSourceConfig(521, 0.1, 1), "mean_photons_per_pulse", 2.0**62, id="photons"),
    pytest.param(EntangledPairConfig(1e9, 0.1, 1), "mean_pairs_per_pulse", 2.0**62, id="pairs"),
    pytest.param(EntangledPairConfig(1e9, 0.0, 1000), "rep_rate_hz", INF, id="inf-rep-rate"),
    pytest.param(FrameConfig(521), "bin_width_ps", NAN, id="nan-bin-width"),
]
CHECKED = [pytest.param(*case, id=type(case[0]).__name__) for case in BAD_FIELDS]
CHECKED += BAD_SPANS + PAST_BUDGET + MORE_CHECKS


@pytest.mark.parametrize("obj,name,bad", CHECKED)
def test_parameters_are_checked_when_built(obj, name, bad):
    # The config maps the message's first word, a list field's with its index, to the field path.
    with pytest.raises(ValueError, match=rf"^{name}(\[\d+\])? "):
        replace(obj, **{name: bad})
    assert not hasattr(obj, "validate")


@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(([], -1, 0, 5.0), r"^pair_period_ps must be > 0, got -1$", id="period"),
        pytest.param(([1], 2, 1, 5.0), r"^occupancy must lie in \(0, 1\], got 5.0$", id="occupancy"),
        pytest.param(([], 2, 1), r"^delta_ts_ps must hold at least one spacing$", id="empty"),
        pytest.param(([1, 2], 2, 1), r"^delta_ts_ps\[1\] must lie in \(0, pair_period_ps\), got 2$",
                     id="spacing"),
        pytest.param(([1, 2, 1], 3, 1), r"^delta_ts_ps\[2\] repeats delta_ts_ps\[0\], got 1$",
                     id="repeat"),
        pytest.param(([1], 2**60, 4), r"^n_pairs \* pair_period_ps must lie in \[0, 2\*\*61\) ps",
                     id="span"),
    ],
)
def test_pair_scan_refuses_what_a_point_would(monkeypatch, args, message):
    # PairScan checks its own fields and spacings before it builds a point,
    # so no PairScanConfig it builds can fail.
    def build_point(*point):
        raise AssertionError(f"a point was built from {point}")

    monkeypatch.setattr(experiments, "PairScanConfig", build_point)
    with pytest.raises(ValueError, match=message):
        PairScan(*args)


# A valid instance of every dataclass that declares its fields' domains.
DECLARING = [
    AfterpulseModel(),
    BlankingConfig(),
    preset("spcm-aqrh").params,
    CwSourceConfig(rate_cps=1.0, duration_ps=1),
    PulsedSourceConfig(period_ps=521, mean_photons_per_pulse=0.1, duration_ps=1),
    PairScanConfig(delta_t_ps=1, pair_period_ps=2, n_pairs=1),
    PairScan(delta_ts_ps=[1], pair_period_ps=2, n_pairs=1),
    EntangledPairConfig(rep_rate_hz=1e9, mean_pairs_per_pulse=0.1, duration_ps=1),
    FrameConfig(bin_width_ps=521),
    KeyRateInputs(m_channels=1, eta=1.0, n_mean=1.0, xi=1.0, bin_width_ps=1.0),
]


def declaring_dataclasses() -> set:
    """Every dataclass of the package with a field that declares a domain."""
    found = set()
    for module in [m for name, m in sys.modules.items() if name.startswith("spadsim.")]:
        for obj in vars(module).values():
            if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__:
                if _declared(obj):
                    found.add(obj)
    return found


def outside(domain: str, tp: type) -> list:
    """The values of type tp just outside each end of the domain."""
    low, low_open, high, high_open = _domain(domain)
    values = []
    for bound, is_open, way in ((low, low_open, -1), (high, high_open, 1)):
        if bound is not None and is_open:
            values.append(tp(bound))
        elif bound is not None:
            values.append(bound + way if tp is int else math.nextafter(bound, way * math.inf))
    return values


def out_of_domain_cases():
    for obj in DECLARING:
        hints = get_type_hints(type(obj), include_extras=True)
        for name, domains in _declared(type(obj)).items():
            tp = get_args(hints[name])[0]
            values = [math.nan, math.inf, -math.inf]
            values += [v for domain in domains for v in outside(domain, tp)]
            for v in values:
                yield pytest.param(obj, name, v, id=f"{type(obj).__name__}.{name}={v!r}")


def test_every_declaring_dataclass_has_a_valid_instance():
    assert declaring_dataclasses() == {type(obj) for obj in DECLARING}


@pytest.mark.parametrize("obj,name,bad", list(out_of_domain_cases()))
def test_each_declared_domain_is_checked_when_built(obj, name, bad):
    # The cases come from the declarations, so a new field is covered as it is declared.
    with pytest.raises(ValueError, match=rf"^{name} "):
        replace(obj, **{name: bad})


# Bounds on arguments that the config reads off a function's declarations:
# each kind, key, a value the config refuses and one just inside.
QKD_GRIDS = ("ac_bin_width_ps", "ac_span_ps", "cc_bin_width_ps", "cc_span_ps")
OWNER_BOUNDS = [
    ("interarrival", "bin_width_ps", 0, 1),
    ("interarrival", "tau_trap_guess_ps", 0.5, 1.0),
    ("autocorr", "bin_width_ps", 0, 1),
    ("jitter-scan", "min_pairs", 0, 1),
    *[("qkd", key, 0, 1) for key in QKD_GRIDS],
]


@pytest.mark.parametrize("kind,key,bad,good", OWNER_BOUNDS)
def test_function_owner_bounds_are_checked(kind, key, bad, good):
    doc = copy.deepcopy(MINIMAL[kind])
    doc.setdefault("instrument", {})[key] = bad
    with pytest.raises(ConfigError, match=rf"^instrument\.{key} must be "):
        validate_config(doc)
    doc["instrument"][key] = good
    assert validate_config(doc)[key] == good


# Each function of OWNER_BOUNDS called from Python, with a kind's minimal
# arguments. The jitter-scan spacing holds no intervals, so that min_pairs
# below 1 would average none.
OWNER_CALLS = {
    "interarrival": lambda **kw: experiments.run_interarrival(
        preset("spcm-aqrh").params, CwSourceConfig(50_000.0, 10**9), 7, **kw
    ),
    "autocorr": lambda **kw: experiments.run_autocorr(
        preset("spcm-aqrh").params, PulsedSourceConfig(521, 0.01, 10**7), 7,
        **{"max_lag_ps": 60_000, "bin_width_ps": 100, **kw},
    ),
    "jitter-scan": lambda **kw: shift_and_jitter_vs_dt([(1000, [])], **kw),
    "qkd": lambda **kw: correlator_grids(FrameConfig(521), **kw),
}


@pytest.mark.parametrize(
    "kind,key,bad", [row[:3] for row in OWNER_BOUNDS] + [("jitter-scan", "min_pairs", -5)]
)
def test_function_owner_bounds_are_checked_on_entry(kind, key, bad):
    with pytest.raises(ValueError, match=rf"^{key} must be "):
        OWNER_CALLS[kind](**{key: bad})


# run_visibility_sweep, which no config reaches, checks its keyword
# arguments on entry: each one, a value it refuses and the message naming it.
@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("photon_rate_cps", -1.0, r"^photon_rate_cps must lie in \(0, 1e12\] cps, got -1.0$"),
        ("photon_rate_cps", 0.0, r"^photon_rate_cps must lie in \(0, 1e12\] cps, got 0.0$"),
        ("n_periods_lag", -3, r"^n_periods_lag must be >= 1, got -3$"),
        ("n_periods_lag", 0, r"^n_periods_lag must be >= 1, got 0$"),
    ],
    ids=["rate-below-0", "rate-0", "lag-below-0", "lag-0"],
)
def test_visibility_sweep_checks_its_arguments_on_entry(key, bad, message):
    kwargs = {"photon_rate_cps": 2.0e6, "duration_ps": 10**8, "n_periods_lag": 30, key: bad}
    with pytest.raises(ValueError, match=message):
        experiments.run_visibility_sweep(preset("spcm-aqrh").params, (496,), 8, **kwargs)


# Each grid a config sets up at 2**24 bins, the most it may ask for, and one
# step past: the key, its value at the bound, the value past it and the bins
# that asks for. The QKD spans round up to whole bins, and the
# cross-correlator spans both signs of the lag.
BIN_BOUNDS = [
    pytest.param("interarrival", {"bin_width_ps": 1000}, "span_ps",
                 1000 * 2**24, 1000 * (2**24 + 1), 2**24 + 1, id="interarrival"),
    pytest.param("autocorr", {"bin_width_ps": 100}, "max_lag_ps",
                 100 * 2**24 + 99, 100 * (2**24 + 1), 2**24 + 1, id="autocorr"),
    pytest.param("qkd", {"ac_bin_width_ps": 50}, "ac_span_ps",
                 50 * 2**24, 50 * 2**24 + 1, 2**24 + 1, id="qkd-ac"),
    pytest.param("qkd", {"cc_bin_width_ps": 100}, "cc_span_ps",
                 100 * 2**23, 100 * 2**23 + 1, 2**24 + 2, id="qkd-cc"),
]


@pytest.mark.parametrize("kind,instrument,key,most,past,n_bins", BIN_BOUNDS)
def test_grids_past_2_24_bins_are_refused(kind, instrument, key, most, past, n_bins):
    # Validation only: no grid this large is allocated.
    doc = copy.deepcopy(MINIMAL[kind])
    doc["instrument"] = dict(instrument, **{key: most})
    assert validate_config(doc)[key] == most
    doc["instrument"][key] = past
    message = rf"^instrument\.{key}: asks for {n_bins} bins, more than 2\*\*24$"
    with pytest.raises(ConfigError, match=message):
        validate_config(doc)


class TestLoadConfig:
    def test_reads_json(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(INTERARRIVAL))
        assert validate_config(INTERARRIVAL) == load_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="run.json"):
            load_config(str(tmp_path / "run.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))


# Every kind of the registry, each with only its required keys.
MINIMAL = {
    "interarrival": base(
        "interarrival",
        detector={"preset": "spcm-aqrh"},
        source={"rate_cps": 50_000.0, "duration_ps": 1_000_000_000},
    ),
    "jitter-scan": base("jitter-scan", detector={"preset": "spcm-aqrh"}, source=PAIR_SOURCE),
    "pair-scan": base("pair-scan", detector={"preset": "spcm-aqrh"}, source=PAIR_SOURCE),
    "autocorr": base(
        "autocorr",
        detector={"preset": "spcm-aqrh"},
        source={"period_ps": 521, "mean_photons_per_pulse": 0.01, "duration_ps": 10_000_000},
        instrument={"max_lag_ps": 60_000, "bin_width_ps": 100},
    ),
    "qkd": base(
        "qkd",
        detector_a={"preset": "custom-aq"},
        detector_b={"preset": "spcm-aqrh"},
        source={"rep_rate_hz": 1.92e9, "mean_pairs_per_pulse": 0.01, "duration_ps": 1_000_000},
        frame={"bin_width_ps": 521},
    ),
    "keyrate": base(
        "keyrate",
        inputs={"m_channels": 8, "eta": 0.1, "n_mean": 1.0, "xi": 0.001, "bin_width_ps": 260},
    ),
}

# The required keys of every section that has any, as the config format documents them.
REQUIRED = {
    "interarrival": {"source": ("rate_cps", "duration_ps")},
    "jitter-scan": {"source": ("delta_ts_ps", "pair_period_ps", "n_pairs")},
    "pair-scan": {"source": ("delta_ts_ps", "pair_period_ps", "n_pairs")},
    "autocorr": {
        "source": ("period_ps", "mean_photons_per_pulse", "duration_ps"),
        "instrument": ("max_lag_ps", "bin_width_ps"),
    },
    "qkd": {
        "source": ("rep_rate_hz", "mean_pairs_per_pulse", "duration_ps"),
        "frame": ("bin_width_ps",),
    },
    "keyrate": {"inputs": ("m_channels", "eta", "n_mean", "xi", "bin_width_ps")},
}

SECTIONS = [(k, s.name) for k, spec in SCENARIOS.items() for s in spec.sections]
DETECTORS = [(k, slot) for k, spec in SCENARIOS.items() for slot in spec.detectors]
REQUIRED_SECTIONS = [(k, sec) for k, secs in REQUIRED.items() for sec in secs] + DETECTORS
MISSING = [(k, sec, key) for k, secs in REQUIRED.items() for sec, ks in secs.items() for key in ks]


class TestRegistry:
    def test_tables_cover_every_kind(self):
        assert tuple(SCENARIOS) == KINDS
        assert set(MINIMAL) == set(REQUIRED) == set(KINDS)

    @pytest.mark.parametrize("kind,section", SECTIONS)
    def test_registry_requires_documented_keys(self, kind, section):
        (spec,) = [s for s in SCENARIOS[kind].sections if s.name == section]
        required = [k for k, (_, d) in spec.fields.items() if d is inspect.Parameter.empty]
        assert tuple(required) == REQUIRED[kind].get(section, ())

    @pytest.mark.parametrize("kind", KINDS)
    def test_minimal_document_validates(self, kind):
        norm = validate_config(MINIMAL[kind])
        assert norm["kind"] == kind and norm["seed"] == 7 and norm["outputs"] == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_sections_spread_into_disjoint_keys(self, kind):
        # Every section lands in one flat dict, so no key may be declared twice.
        spec = SCENARIOS[kind]
        keys = ["kind", "seed", "outputs", *spec.detectors]
        keys += [key for section in spec.sections for key in section.fields]
        assert len(keys) == len(set(keys))
        assert not set(keys) & {s.name for s in spec.sections}
        # A dataclass section's object sits under its name, built from its flat fields.
        norm = validate_config(MINIMAL[kind])
        for section in spec.sections:
            if isinstance(section.owner, type):
                assert norm[section.name] == section.owner(**{k: norm[k] for k in section.fields})
        # The flat keys stay: the benchmark's preflight reads them.
        assert set(keys) <= set(norm)

    @pytest.mark.parametrize("kind,section", SECTIONS + DETECTORS + [(k, "outputs") for k in KINDS])
    def test_unknown_key_names_section_and_key(self, kind, section):
        doc = copy.deepcopy(MINIMAL[kind])
        doc.setdefault(section, {})["bogus_key"] = 1
        with pytest.raises(ConfigError, match=rf"^{section}: unknown key\(s\) 'bogus_key'"):
            validate_config(doc)

    @pytest.mark.parametrize("kind,section,key", MISSING)
    def test_missing_required_key_is_named(self, kind, section, key):
        doc = copy.deepcopy(MINIMAL[kind])
        del doc[section][key]
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{key}: is required"):
            validate_config(doc)

    @pytest.mark.parametrize("kind,section", REQUIRED_SECTIONS)
    def test_missing_required_section_is_named(self, kind, section):
        doc = copy.deepcopy(MINIMAL[kind])
        del doc[section]
        with pytest.raises(ConfigError, match=rf"^config\.{section}: is required"):
            validate_config(doc)


# One field per kind that passed validation and then failed in the run: an
# integer beyond numpy's int64, a repeated spacing, a scan span, a correlator
# span or a run's duration past the time budget, a correlator bin too wide
# for the period.
RUN_FAILURES = [
    pytest.param("interarrival", "instrument", "bin_width_ps", 2**64,
                 "instrument.bin_width_ps: must lie", id="interarrival"),
    pytest.param("jitter-scan", "source", "delta_ts_ps", [20_000, 2**63],
                 "source.delta_ts_ps[1]: must lie", id="jitter-scan"),
    pytest.param("pair-scan", "source", "pair_period_ps", 2**63,
                 "source.pair_period_ps: must lie", id="pair-scan"),
    pytest.param("autocorr", "source", "period_ps", 2**64,
                 "source.period_ps: must lie", id="autocorr"),
    pytest.param("qkd", "instrument", "cc_span_ps", 2**63,
                 "instrument.cc_span_ps: must lie", id="qkd"),
    pytest.param("qkd", "instrument", "cc_span_ps", 2**58,
                 "instrument.cc_span_ps must lie in [0, 2**58) ps, got 288230376151711744\n",
                 id="qkd-span-rounding"),
    pytest.param("qkd", "source", "duration_ps", 2**61,
                 "source.duration_ps must lie in (0, 2**61) ps, got 2305843009213693952\n",
                 id="qkd-span-reach"),
    pytest.param("qkd", "instrument", "ac_bin_width_ps", 300,
                 "instrument.ac_bin_width_ps: must be at most half of the pulse period "
                 "(520.8333333333334 ps for frame.bin_width_ps 521), got 300", id="qkd-ac-grid"),
    pytest.param("keyrate", "inputs", "m_channels", -(2**63) - 1,
                 "inputs.m_channels: must lie", id="keyrate"),
    pytest.param("jitter-scan", "source", "delta_ts_ps", [30_000, 30_000],
                 "source.delta_ts_ps[1] repeats", id="repeated-spacing"),
    pytest.param("pair-scan", "source", "pair_period_ps", 2**61,
                 "source.n_pairs * pair_period_ps must lie in [0, 2**61) ps", id="scan-span"),
    # The interarrival histogram's default span is 4096 bins.
    pytest.param("interarrival", "instrument", "bin_width_ps", 2**48,
                 "instrument.span_ps must lie in [0, 2**60) ps, got 1152921504606846976\n",
                 id="interarrival-span"),
    pytest.param("autocorr", "instrument", "max_lag_ps", 2**60,
                 "instrument.max_lag_ps must lie in [0, 2**60) ps", id="autocorr-lag"),
    pytest.param("qkd", "frame", "bins_per_frame", 2**60,
                 "frame.bins_per_frame * bin_width_ps must lie in [0, 2**61) ps", id="qkd-frame"),
]


@pytest.mark.parametrize("kind,section,key,value,message", RUN_FAILURES)
def test_run_failures_are_config_errors(tmp_path, capsys, kind, section, key, value, message):
    doc = copy.deepcopy(MINIMAL[kind])
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_qkd_default_autocorrelator_grid_must_fit_the_period(tmp_path, capsys):
    # At a 1 ps frame bin the default autocorrelator bin is 1 ps, but the
    # 1 ps pulse period needs two bins for the visibility.
    doc = copy.deepcopy(MINIMAL["qkd"])
    doc["source"]["rep_rate_hz"] = 1.0e12
    doc["frame"]["bin_width_ps"] = 1
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: instrument.ac_bin_width_ps: must be at most half of the pulse period "
        "(1.0 ps for frame.bin_width_ps 1), got 1; the default is frame.bin_width_ps // 8, "
        "at least 1\n"
    )


def test_int64_bound_covers_detector_params_but_not_the_seed():
    with pytest.raises(ConfigError, match=r"^detector\.params\.tau_dead0_ps: must lie in \["):
        validate_config(with_params(tau_dead0_ps=2**63))
    # Inside int64, the time budget refuses a dead time of 2**58 ps or more.
    budget = r"^detector\.params\.tau_dead0_ps plus the largest dead_elongation duration must "
    with pytest.raises(ConfigError, match=budget + r"lie in \[0, 2\*\*58\) ps"):
        validate_config(with_params(tau_dead0_ps=2**58))
    assert validate_config(dict(INTERARRIVAL, seed=2**200))["seed"] == 2**200

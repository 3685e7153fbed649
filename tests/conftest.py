"""Shared test helpers and the acceptance-criteria summary block."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from spadsim import validate_config

N_CRITERIA = 11
_RESULTS: dict[int, tuple[bool, str]] = {}


def check(criterion: int, passed: bool, detail: str) -> None:
    """Record one acceptance criterion outcome, then assert it."""
    _RESULTS[criterion] = (bool(passed), detail)
    assert passed, f"criterion {criterion}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for i in range(1, N_CRITERIA + 1):
        if i in _RESULTS:
            ok, detail = _RESULTS[i]
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"[criterion {i:02d}] {verdict} - {detail}")
        else:
            terminalreporter.write_line(f"[criterion {i:02d}] NOT RUN")


def as_json(params) -> dict:
    """A DetectorParams as the JSON object an inline config detector takes."""
    return json.loads(json.dumps(asdict(params)))


def inline_detector(params: dict):
    """The DetectorParams validate_config reads from an inline `params` object."""
    doc = {"version": 1, "kind": "interarrival", "seed": 1, "detector": {"params": params}}
    doc["source"] = {"rate_cps": 1.0, "duration_ps": 1}
    return validate_config(doc)["detector"]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

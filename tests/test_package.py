import dataclasses
import importlib
import importlib.util
import json
import pathlib
import re

import spadsim

LIBRARY = (
    "analysis", "config", "detector", "experiments", "instruments",
    "presets", "qkd", "reference", "rng", "sources",
)
ROOT = pathlib.Path(__file__).resolve().parents[1]


# Also matches the import statements inside perfbench/run.py's probe string.
FROM_SPADSIM = re.compile(r"^[ \t]*from spadsim import (?:\(([^)]*)\)|(.*))$", re.M)


def imported_from_spadsim(text):
    """Names that `from spadsim import ...` lines in `text` import."""
    return {
        name
        for groups in FROM_SPADSIM.findall(text)
        for name in re.findall(r"\w+", re.sub(r"#.*|\s+as\s+\w+", "", "".join(groups)))
    }


def test_namespace_is_the_union_of_the_library_modules_all():
    expected = ["__version__"]
    for name in LIBRARY:
        expected += importlib.import_module(f"spadsim.{name}").__all__
    assert len(set(expected)) == len(expected)
    assert spadsim.__all__ == expected
    for name in spadsim.__all__:
        getattr(spadsim, name)

    # The time-to-amplitude converter is gone, and with it its random stream.
    for namespace in (spadsim, spadsim.instruments):
        assert not [name for name in dir(namespace) if name.lower().startswith("tac")]
    assert "instrument" not in spadsim.STREAM_IDS

    # The README's Quick tour and the benchmark import from the package.
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    sources = [tour] + [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(imported_from_spadsim, sources))
    assert {"detect", "run_qkd_scenario", "_backend"} <= used
    for name in used:
        assert hasattr(spadsim, name) or importlib.util.find_spec(f"spadsim.{name}"), name


def markdown_rows(text, header):
    """The cells of each row of the README table that starts with `header`."""
    table = text.split(header + "\n", 1)[1].split("\n\n", 1)[0]
    return [[c.strip() for c in row.strip("|").split("|")] for row in table.splitlines()[1:]]


def test_readme_config_reference_matches_the_code():
    readme = (ROOT / "README.md").read_text()

    kinds = markdown_rows(readme, "| kind | detectors | sections | outputs |")
    assert [re.fullmatch(r"`([\w-]+)`", row[0]).group(1) for row in kinds] == list(spadsim.KINDS)

    # Each nested detector object lists exactly its dataclass's fields.
    objects = markdown_rows(readme, "| object | keys (required in bold) |")
    documented = {re.search(r"\(`(\w+)`\)", obj).group(1): keys for obj, keys in objects}
    for owner in (spadsim.AfterpulseModel, spadsim.BlankingConfig):
        names = re.findall(r"`(\w+)`=", documented[owner.__name__])
        assert names == [f.name for f in dataclasses.fields(owner)], owner.__name__

    example = re.search(r"Example:\n\n```json\n(.*?)```", readme, re.S).group(1)
    assert spadsim.validate_config(json.loads(example))["kind"] == "interarrival"

import hashlib
import pathlib

import pytest

from starsemi import INVOLUTION, POE, ModelSpec, enumerate_models

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
STRUCTURES = REPO_ROOT / "structures"

_catalog_cache = {}
_acceptance_lines = []


def catalog(order):
    """Involution poe model catalog at one order, cached per session."""
    if order not in _catalog_cache:
        spec = ModelSpec(order=order, required_tiers=frozenset({INVOLUTION, POE}))
        _catalog_cache[order] = tuple(enumerate_models(spec))
    return _catalog_cache[order]


def fingerprint(lines):
    """A label-independent fingerprint of records that each begin with a
    canonical digest: the digest version, then the sha256 of the sorted
    records joined by newlines. A change of canonical labeling shows as a
    new version."""
    lines = sorted(lines)
    (version,) = {line.split("-", 1)[0] for line in lines}
    return f"{version}-{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}"


@pytest.fixture(scope="session")
def catalog_upto_3():
    return [m for n in (1, 2, 3) for m in catalog(n)]


@pytest.fixture(scope="session")
def catalog_upto_4():
    return [m for n in (1, 2, 3, 4) for m in catalog(n)]


@pytest.fixture(scope="session")
def catalog_5():
    return catalog(5)


@pytest.fixture(scope="session")
def example2_path():
    return STRUCTURES / "example2.txt"


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)

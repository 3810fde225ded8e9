"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.data.synthetic import SyntheticPile
from repro.numeric.transformer import TinyTransformer, TransformerParams
from repro.tune import runtime as tune_runtime


#: Seed for a shuffled test order (unset or empty: collection order).
SHUFFLE_ENV = "REPRO_TEST_SHUFFLE"


def _shuffle_seed() -> Optional[int]:
    value = os.environ.get(SHUFFLE_ENV, "")
    return int(value) if value else None


def _order_line(seed: Optional[int]) -> str:
    order = "collection order" if seed is None else f"shuffled, seed {seed}"
    return f"test order: {order} ({SHUFFLE_ENV})"


def pytest_report_header(config):
    return _order_line(_shuffle_seed())


def _shuffled(rng: random.Random, groups: Dict) -> List:
    keys = list(groups)
    rng.shuffle(keys)
    return [groups[k] for k in keys]


def pytest_collection_modifyitems(session, config, items):
    """Run the suite in a seeded random order, so a test that passes only
    after (or fails only after) another one shows up.

    Modules, the classes and free functions within a module, and the
    tests within a class are each shuffled as a level, which keeps every
    module- and class-scoped fixture to one setup.
    """
    seed = _shuffle_seed()
    if seed is None:
        return
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and config.getoption("verbose") < 0:
        # -q hides the header; a shuffled run must still name its seed
        reporter.write_line(_order_line(seed))
    rng = random.Random(seed)
    modules: Dict = {}
    for item in items:
        owners = modules.setdefault(item.nodeid.split("::")[0], {})
        owner = item.cls if item.cls is not None else item.nodeid
        owners.setdefault(owner, []).append(item)
    order = []
    for owners in _shuffled(rng, modules):
        for group in _shuffled(rng, owners):
            rng.shuffle(group)
            order.extend(group)
    items[:] = order


@pytest.fixture(autouse=True)
def _no_host_tune_profile(monkeypatch):
    """Keep developer-machine tune.json profiles out of every test.

    ``REPRO_TUNE=0`` disables the runtime's lazy autoload (a host
    profile would silently change dispatch crossovers and block sizes
    under test); explicit ``tune.activate(...)`` still works, which is
    exactly what the tune tests use.  The runtime is reset on both sides
    so no activation leaks between tests.
    """
    monkeypatch.setenv("REPRO_TUNE", "0")
    tune_runtime.reset()
    yield
    tune_runtime.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_spec() -> TransformerParams:
    """A minimal transformer shape, fast enough for per-test training."""
    return TransformerParams(
        vocab=61, max_seq=16, hidden=24, n_layers=2, n_heads=4
    )


@pytest.fixture
def tiny_model(tiny_spec: TransformerParams) -> TinyTransformer:
    """A freshly initialized tiny transformer."""
    return TinyTransformer(tiny_spec, seed=7)


@pytest.fixture
def tiny_batches(tiny_spec: TransformerParams):
    """Twenty deterministic (ids, targets) batches for the tiny model."""
    pile = SyntheticPile(tiny_spec.vocab, seed=3)
    gen = pile.batches(4, tiny_spec.max_seq)
    return [next(gen) for _ in range(20)]

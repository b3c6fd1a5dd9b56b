"""Bundled example contexts.

Four small datasets exercising the interesting regimes: a real-world
context that is not quite two-factorizable, the smallest context whose
incompatibility graph is a cycle, a context whose two factors are forced
to share a pair, and one where removal creates new clashes: a known
17-incidence transversal (valid, but not minimum) leaves an odd cycle
behind, while one optimal round of 12 removals suffices.
"""
from __future__ import annotations

from importlib import resources

from .context import FormalContext, parse_cxt

_NAMES = (
    "monuments",
    "contranominal3",
    "forced_overlap",
    "persistent_odd_cycle",
)


def available() -> tuple[str, ...]:
    return _NAMES


def load(name: str) -> FormalContext:
    if name not in _NAMES:
        raise KeyError(f"unknown dataset {name!r}, available: {', '.join(_NAMES)}")
    text = resources.files(__package__).joinpath(f"data/{name}.cxt").read_text()
    return parse_cxt(text)

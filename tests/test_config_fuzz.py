"""``parse_config`` on mutated configs: a parsed config or a ConfigError, never another error.

Every field of ``configs/lq_small.json``, with every verify default spelled
out, is open to mutation: a wrong type, NaN or an infinity, a negative or
huge number, a deleted key, or an object replaced by the list of its values.
"""
import copy
import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mfcpoisson.config import ConfigError, ExperimentConfig, parse_config

DELETE, LISTIFY = object(), object()


def _base() -> dict:
    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "configs" / "lq_small.json").read_text()
    )
    raw["verify"] = copy.deepcopy(parse_config(raw).verify)
    return raw


BASE = _base()


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


PATHS = list(_paths(BASE))

BAD_VALUES = st.one_of(
    st.sampled_from([
        DELETE, LISTIFY, None, True, False, "", "1", "0.5", [], {}, [1.0, 2.0],
        {"a": 1}, math.nan, math.inf, -math.inf, 0, -1, -1.5, 0.0, 1e308,
        -1e308, 2**70, 2**1100, -(2**1100),
    ]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
    st.text(max_size=4),
)


def _lookup(node, key):
    """The child at ``key``, or None where an earlier mutation removed or
    retyped the branch."""
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list) and isinstance(key, int) and key < len(node):
        return node[key]
    return None


def _mutate(raw: dict, path: tuple, value) -> None:
    parent = raw
    for key in path[:-1]:
        parent = _lookup(parent, key)
    key = path[-1]
    current = _lookup(parent, key)
    if current is None:
        return
    if value is DELETE:
        del parent[key]
    elif value is LISTIFY:
        if isinstance(current, dict):
            parent[key] = list(current.values())
    else:
        parent[key] = value


@settings(max_examples=400, database=None, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(PATHS), BAD_VALUES), min_size=1, max_size=3))
def test_mutated_config_parses_or_is_a_config_error(mutations):
    raw = copy.deepcopy(BASE)
    for path, value in mutations:
        _mutate(raw, path, value)
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    # the views the subcommands read must work on whatever was accepted
    assert cfg.verify["u_grid"]["points"] >= 3
    assert all(math.isfinite(p.amount) for p in cfg.perturbations)
    for name in ("smp", "bsde"):
        assert cfg.tolerance(name) > 0


def test_unmutated_base_parses():
    assert isinstance(parse_config(copy.deepcopy(BASE)), ExperimentConfig)

"""Property suite: any JSON object gives a RunConfig or a ConfigError, nothing else."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from legnet import ConfigError, config_from_dict  # noqa: E402
from legnet.config import _REMOVED, _SCHEMA, RunConfig  # noqa: E402

# Every key as the schema reads it, blocks flattened to "BLOCK.KEY", with
# the removed and some unknown keys; `nest` writes each dotted key back
# into its block.
FLAT = sorted({*_SCHEMA, *_REMOVED}) + ["sbm", "mcmc", "qrange", "sbm.bogus",
                                        "mcmc.bogus", ""]
# keys of term objects, so that draws reach their checks
NESTED = ["name", "terms", "term", "attribute", "level", "role"]
WORDS = ["e.csv", "csv", "upstream-json", "exact-dyad", "mcmle", "model1",
         "edges", "mutual", "covariate", "match", "absdiff", "age", "party", "sender",
         "ingest", "sbm", "1:3", "3:1", "x:y", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=True)
    | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(NESTED) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def nest(flat):
    """The JSON config of flattened keys; a block drawn whole keeps its value."""
    raw = {}
    for key, value in flat.items():
        block, dot, name = key.partition(".")
        if not dot:
            raw.setdefault(key, value)
        elif isinstance(raw.setdefault(block, {}), dict):
            raw[block] = {**raw[block], name: value}
    return raw


configs = st.dictionaries(st.sampled_from(FLAT), json_values, max_size=8).map(nest)


@settings(max_examples=400, deadline=None)
@given(configs)
def test_any_json_object_gives_a_config_or_a_config_error(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert isinstance(config, RunConfig)
        config.validate()

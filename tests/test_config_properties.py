"""Property suite: any JSON object gives a RunConfig or a ConfigError, nothing else."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from legnet import ConfigError, config_from_dict  # noqa: E402
from legnet.config import RunConfig  # noqa: E402

TOP_LEVEL = ["edges", "attrs", "format", "json_fields", "party_reassignment", "models",
             "ergm_estimator", "mcmc", "sbm", "score_against", "seed", "out", "stages",
             "weighted_spectral", "standardize", "min_clique_size"]
UNKNOWN = ["threads", "qrange", "sbm.init", ""]
# keys of the nested blocks and term objects, so that draws reach their checks
NESTED = ["q_range", "restarts", "init", "sample_size", "max_phases", "ee_tol", "seed",
          "step_max", "min_ess_frac", "burnin", "interval", "bridges", "nodes",
          "targets", "name", "terms", "term", "attribute", "level", "role"]
WORDS = ["e.csv", "csv", "upstream-json", "exact-dyad", "mcmle", "spectral", "model1",
         "edges", "mutual", "covariate", "match", "absdiff", "age", "party", "sender",
         "ingest", "sbm", "1:3", "3:1", "x:y", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=True)
    | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(NESTED) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)
configs = st.dictionaries(st.sampled_from(TOP_LEVEL + UNKNOWN), json_values, max_size=8)


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

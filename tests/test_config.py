"""Config file parsing: DataError is the only failure on any input."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vraets import config
from vraets.errors import DataError

_KEYS = sorted(config.DEFAULTS)
# characters that steer json.loads into its number, string, array and
# object paths, with the separators of the config syntax
_JSONISH = st.text(alphabet='[]{}",:0123456789.eE+-truefalsnI \t#=\\',
                   max_size=40)
_LINE = st.one_of(
    st.text(max_size=60).map(lambda s: s.replace("\n", " ")),
    st.tuples(st.sampled_from(_KEYS), st.one_of(_JSONISH, st.text(max_size=40)))
    .map(lambda kv: f"{kv[0]} = {kv[1]}".replace("\n", " ")),
)


def _parse(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    return config.parse_config_file(str(path))


@pytest.mark.parametrize("value", ["[" * 100_000, "{\"a\":" * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_value_is_data_error(tmp_path, value):
    with pytest.raises(DataError, match="vrae.epochs.*nested too deeply"):
        _parse(tmp_path, f"vrae.epochs = {value}\n")


def test_integer_past_digit_limit_is_kept_as_text(tmp_path):
    # json.loads raises a plain ValueError for it; resolve() then rejects
    # the text for a numeric key
    digits = "1" * 5000
    assert _parse(tmp_path, f"vrae.epochs = {digits}\n") == \
        {"vrae.epochs": digits}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_LINE, max_size=6).map("\n".join))
def test_arbitrary_text_raises_only_data_error(tmp_path, text):
    try:
        overrides = _parse(tmp_path, text)
    except DataError:
        return
    assert set(overrides) <= set(config.DEFAULTS)
    try:
        cfg = config.resolve(overrides=overrides)
    except DataError:
        return
    assert set(cfg) == set(config.DEFAULTS)


@pytest.mark.parametrize("key", [key for key, default
                                 in config.DEFAULTS.items()
                                 if type(default) is int])
def test_400_digit_int_value_resolves_or_is_data_error(key):
    # the Nyquist rule must not turn synth.harmonics into a float
    value = 10 ** 400
    try:
        cfg = config.resolve(overrides={key: value})
    except DataError as exc:
        assert str(exc).startswith("config key '")
        return
    assert cfg[key] == value


def test_resolve_returns_values_of_the_default_type():
    cfg = config.resolve(overrides={"vrae.epochs": 3.0,
                                    "vrae.learning_rate": 1,
                                    "project.gamma": 2,
                                    "cluster.eps": None})
    assert type(cfg["vrae.epochs"]) is int and cfg["vrae.epochs"] == 3
    assert type(cfg["vrae.learning_rate"]) is float
    assert cfg["vrae.learning_rate"] == 1.0
    assert type(cfg["project.gamma"]) is float and cfg["project.gamma"] == 2.0
    assert cfg["cluster.eps"] is None
    for key, default in config.DEFAULTS.items():
        if isinstance(default, (int, float)):
            assert type(cfg[key]) is type(default), key

"""Experiment config parsing and validation."""
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from schedtune import data
from schedtune.agent import SacConfig
from schedtune.config import ExperimentConfig, config_from_dict, load_config
from schedtune.errors import ConfigError


def test_defaults_construct():
    config = ExperimentConfig()
    assert config.env_kind == "faas"
    assert config.mode == "test"
    assert config.mask_level == "coarse"
    assert config.n_steps == 4
    assert config.hidden == (512, 512, 512)


def test_round_trip_through_dict():
    config = ExperimentConfig(name="abc", env_kind="synthetic",
                              hidden=(32, 16), lr=1e-3)
    assert config_from_dict(config.to_dict()) == config


def test_to_dict_serializes_hidden_as_list():
    payload = ExperimentConfig().to_dict()
    assert payload["hidden"] == [512, 512, 512]
    json.dumps(payload)  # must be JSON-serializable as-is


def test_hidden_normalized_to_tuple():
    assert ExperimentConfig(hidden=[64, 64]).hidden == (64, 64)


def test_each_class_has_its_field_types_worked_out_once(monkeypatch):
    calls = []
    hints = data.get_type_hints
    monkeypatch.setattr(data, "get_type_hints", lambda cls: calls.append(cls) or hints(cls))
    data.field_kinds.cache_clear()
    for _ in range(3):
        config_from_dict({"hidden": [8], "lr": 1e-3})
    assert calls == [ExperimentConfig]
    kinds = data.field_kinds(ExperimentConfig)
    assert list(kinds) == [f.name for f in fields(ExperimentConfig)]
    assert kinds["hidden"][1] == tuple[int, ...]
    with pytest.raises(TypeError):
        kinds["hidden"] = (None, int)


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="n_senarios: unknown field"):
        config_from_dict({"n_senarios": 5})


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="^top level: expected an object, got list$"):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize("payload, fragment", [
    ({"env_kind": "quantum"}, "env_kind"),
    ({"synth_function": "rosenbrock"}, "synth_function"),
    ({"mode": "validate"}, "mode"),
    ({"mask_level": "partial"}, "mask_level"),
    ({"n_scenarios": 0}, "n_scenarios"),
    ({"n_steps": -1}, "n_steps"),
    ({"batch_size": 0}, "batch_size"),
    ({"start_steps": -1}, "start_steps"),
    ({"gamma": 1.5}, "gamma"),
    ({"tau": -0.1}, "tau"),
    ({"name": ""}, "name"),
    ({"eval_every": -1}, "eval_every: must not be negative"),
    ({"n_eval_seeds": -1}, "n_eval_seeds: must not be negative"),
    ({"log_every": -1}, "log_every: must not be negative"),
])
def test_invalid_values_name_the_field(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(payload)


@pytest.mark.parametrize("payload, fragment", [
    ({"n_scenarios": "ten"}, "n_scenarios: expected an integer, got str"),
    ({"n_scenarios": True}, "n_scenarios: expected an integer, got bool"),
    ({"n_scenarios": 2.0}, "n_scenarios: expected an integer, got float"),
    ({"lr": "fast"}, "lr: expected a number, got str"),
    ({"gamma": False}, "gamma: expected a number, got bool"),
    ({"name": 7}, "name: expected a string, got int"),
    ({"hidden": []}, "hidden: must not be empty"),
    ({"hidden": [32, "x"]}, r"hidden\[1\]: expected an integer, got str"),
    ({"hidden": [32, True]}, r"hidden\[1\]: expected an integer, got bool"),
    ({"hidden": [10**400]}, r"hidden\[0\]: expected a finite number"),
    ({"hidden": [32, 0]}, r"hidden\[1\]: expected a positive integer"),
    ({"data_dir": 3}, "data_dir: expected a string, got int"),
    ({"hidden": 64}, "hidden: expected a list, got int"),
])
def test_type_errors_name_the_field_path(payload, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(payload)


@pytest.mark.parametrize("field", ["duration_s", "lr", "gamma", "tau"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "int-1e400"])
def test_non_finite_numbers_are_rejected(field, value):
    # Only parsed, never simulated: an infinite horizon allocates without end.
    with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
        config_from_dict({field: value})


@pytest.mark.parametrize("field", [f.name for f in fields(ExperimentConfig) if f.type == "int"])
def test_int_fields_past_the_float_range_are_rejected(field):
    with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
        config_from_dict({field: 10**400})


def test_an_int_is_read_as_a_float_field():
    config = config_from_dict({"duration_s": 20, "lr": 1})
    assert (config.duration_s, config.lr) == (20.0, 1.0)
    assert type(config.duration_s) is float and type(config.lr) is float


def test_json_infinity_and_nan_are_rejected(tmp_path):
    for text, field in (('{"duration_s": Infinity}', "duration_s"),
                        ('{"lr": NaN}', "lr")):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{field}: expected a finite"):
            load_config(path)


def test_evaluation_during_training_needs_seeds():
    with pytest.raises(ConfigError, match="n_eval_seeds"):
        config_from_dict({"eval_every": 100, "n_eval_seeds": 0})
    assert config_from_dict({"eval_every": 0, "n_eval_seeds": 0}).n_eval_seeds == 0


def test_a_horizon_the_domain_could_push_past_the_trace_bound_is_refused():
    # sample_scenario draws the total rate and splits it evenly, so the most
    # a FaaS scenario can expect is duration_s times the mode domain's
    # largest total rate: 30 requests per second in test mode, 10 in train.
    with pytest.raises(ConfigError, match=r"^duration_s 50000 at .* 30 requests per "
                                          r"second .*above the bound of 1000000$"):
        config_from_dict({"duration_s": 50000})
    assert config_from_dict({"mode": "train", "duration_s": 50000}).duration_s == 50000
    assert config_from_dict({"duration_s": 33333}).duration_s == 33333
    for payload in ({"duration_s": 33334}, {"mode": "train", "duration_s": 100001}):
        with pytest.raises(ConfigError, match="above the bound"):
            config_from_dict(payload)
    # A synthetic landscape draws no trace.
    assert config_from_dict({"env_kind": "synthetic", "duration_s": 1e12})


def test_data_dir_accepts_null():
    assert config_from_dict({"data_dir": None}).data_dir is None


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"name": "run1", "env_kind": "synthetic",
                                "n_scenarios": 3}))
    config = load_config(path)
    assert config.name == "run1"
    assert config.env_kind == "synthetic"
    assert config.n_scenarios == 3
    assert config.n_steps == 4  # untouched default


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.json")


def test_load_config_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ConfigError, match=r"latin1.json: not UTF-8 text \(byte 13"):
        load_config(path)


def test_agent_settings_default_to_the_agent_defaults():
    # Every command builds its agent from these, so the defaults are one network.
    for obs_dim, act_dim in ((71, 8), (3, 2)):
        assert ExperimentConfig().agent_config(obs_dim, act_dim) == SacConfig(obs_dim, act_dim)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "n_steps": }\n')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_config(path)


def test_readme_minimal_config_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    _, rest = readme.split("A minimal config", 1)
    block = rest.split("```json\n", 1)[1].split("```", 1)[0]
    config = config_from_dict(json.loads(block))
    assert (config.num_envs, config.total_env_steps) == (4, 8000)

"""INI config loading, canonical rendering, and manifest identity."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from reserve_rl.agent import PPOConfig
from reserve_rl.artifacts import git_blob_sha1, write_json
from reserve_rl.cli import main
from reserve_rl.config import (
    FLOOR_FORMS,
    VERSION,
    RunConfig,
    RunSection,
    _WORDS,
    build_manifest,
    config_fingerprint,
    config_to_ini,
    load_config,
)
from reserve_rl.env import EnvConfig
from reserve_rl.errors import ConfigError, DataError
from reserve_rl.regimes import CurriculumSchedule
from test_cli import PIPELINE_INI


def write_ini(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig()
    path = write_ini(tmp_path, config_to_ini(cfg))
    assert load_config(path) == cfg
    assert load_config(None) == cfg


def test_fingerprint_is_pinned(tmp_path):
    """The canonical INI, and so every sidecar's fingerprint, stays put."""
    assert config_fingerprint(RunConfig()) == (
        "6d574b07f05c5b6527eaedd7a90b2b0a37da89b06d1f96c98230066ce6dd31f5"
    )
    assert config_fingerprint(load_config(write_ini(tmp_path, PIPELINE_INI))) == (
        "bd0cb437780575956299a8a84388aa133ed4c421c2f435e83f909639f9faf279"
    )
    env_ini = "[env]\nhorizon = 12\nfloor = strict\nalpha = 0.93\nw_cvar = 4.0\n"
    assert config_fingerprint(load_config(write_ini(tmp_path, env_ini))) == (
        "6e3d1bd4e7563ddfdf829882e8862eef5bf2e26b316a1f3ff2ca109755d5102e"
    )


def test_fingerprint_tracks_content(tmp_path):
    cfg = RunConfig()
    assert config_fingerprint(cfg) == config_fingerprint(RunConfig())
    other = load_config(write_ini(tmp_path, "[run]\nseed = 99\n"))
    assert config_fingerprint(other) != config_fingerprint(cfg)
    assert len(config_fingerprint(cfg)) == 64  # sha256 hex


def test_alpha_special_values(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[env]\nalpha = adaptive\n"))
    assert cfg.env.alpha is None
    cfg = load_config(write_ini(tmp_path, "[env]\nalpha = 0.93\n"))
    assert cfg.env.alpha == 0.93
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[env]\nalpha = 1.5\n"))
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[env]\nalpha = 0\n"))


def test_horizon_special_values(tmp_path):
    assert load_config(write_ini(tmp_path, "[env]\nhorizon = auto\n")).env.horizon is None
    assert load_config(write_ini(tmp_path, "[env]\nhorizon =\n")).env.horizon is None
    assert load_config(write_ini(tmp_path, "[env]\nhorizon = 12\n")).env.horizon == 12


def test_elr_and_floor_special_values(tmp_path):
    assert load_config(write_ini(tmp_path, "[baselines]\nelr = pooled\n")).baselines.elr is None
    assert load_config(write_ini(tmp_path, "[baselines]\nelr = 0.85\n")).baselines.elr == 0.85
    assert load_config(write_ini(tmp_path, "[env]\nfloor = strict\n")).env.floor == (0.5, 0.3)
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[env]\nfloor = bogus\n"))


#: Worded key -> its section and one value no word stands for, as written
#: and as loaded (``floor`` has none: every value is a word).
NON_WORDS = {"alpha": ("env", "0.93", 0.93), "horizon": ("env", "12", 12),
             "elr": ("baselines", "0.85", 0.85), "floor": ("env", None, None)}


@pytest.mark.parametrize("key, raw, value", [
    *((key, word, meaning) for key, (words, _) in _WORDS.items()
      for word, meaning in words.items()),
    *((key, raw, value) for key, (_, raw, value) in NON_WORDS.items() if raw is not None),
])
def test_every_word_round_trips_through_the_ini(tmp_path, key, raw, value):
    """Each word of the table, and one other value of each worded key,
    loads as its value, and ``config_to_ini`` writes that config so that
    it loads back equal, under the same fingerprint."""
    assert set(NON_WORDS) == set(_WORDS)
    section = NON_WORDS[key][0]
    cfg = load_config(write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n"))
    assert getattr(getattr(cfg, section), key) == value
    loaded = load_config(write_ini(tmp_path, config_to_ini(cfg)))
    assert loaded == cfg
    assert config_fingerprint(loaded) == config_fingerprint(cfg)


@pytest.mark.parametrize("render", [config_to_ini, config_fingerprint])
def test_unnamed_floor_raises_config_error(render):
    """An ``EnvConfig`` built in code may hold a floor no INI can name."""
    cfg = replace(RunConfig(), env=replace(RunConfig().env, floor=(0.7, 0.2)))
    with pytest.raises(ConfigError) as info:
        render(cfg)
    assert str(info.value) == f"floor (0.7, 0.2) is none of the forms {dict(FLOOR_FORMS)}"


def test_bool_and_tuple_parsing(tmp_path):
    cfg = load_config(
        write_ini(tmp_path, "[ppo]\nreward_norm = no\n[regimes]\nlevels = 0, 2\n")
    )
    assert cfg.ppo.reward_norm is False
    assert cfg.regimes.levels == (0, 2)
    cfg = load_config(write_ini(tmp_path, "[eval]\nshocks = 0.5,1.25\n"))
    assert cfg.eval.shocks == (0.5, 1.25)
    assert load_config(write_ini(tmp_path, "[eval]\nregimes =\n")).eval.regimes == ()
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[ppo]\nreward_norm = maybe\n"))


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[nonsense]\nx = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "[env]\nnot_a_knob = 1\n"))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, "key_without_section = 1\n"))


def test_env_section_loads_as_env_config(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[env]\nfloor = strict\nalpha = 0.93\nw_cvar = 4.0\n"))
    assert cfg.env == EnvConfig(floor=FLOOR_FORMS["strict"], alpha=0.93, w_cvar=4.0)
    assert "floor = strict\n" in config_to_ini(cfg)


def test_ppo_section_loads_as_ppo_config(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[ppo]\nepochs = 4\nhidden = 16,16\n"))
    assert cfg.ppo == PPOConfig(epochs=4, hidden=(16, 16))


def test_regimes_section_loads_as_schedule(tmp_path):
    cfg = load_config(
        write_ini(tmp_path, "[regimes]\nlevels = 0,1\nepisodes_per_level = 5\nramp_episodes = 2\n")
    )
    assert cfg.regimes == CurriculumSchedule(levels=(0, 1), episodes_per_level=5, ramp_episodes=2)


INVALID_VALUES = [
    ("[ppo]\nminibatch_size = 0\n", "batch_size and minibatch_size must be >= 1"),
    ("[regimes]\nramp_episodes = 0\n", r"ramp_episodes must be in \[1, episodes_per_level\]"),
    ("[regimes]\nlevels = 2,1\n", r"levels must be strictly ascending, got \(2, 1\)"),
    ("[env]\nvol_window = 1\n", "vol_window must be >= 2, got 1"),
    ("[eval]\nepisodes = 0\n", "^episodes must be >= 1, got 0"),
    ("[eval]\nepisodes = -3\n", "^episodes must be >= 1, got -3"),
    ("[eval]\nsweep_episodes_per_level = 0\n", "sweep_episodes_per_level must be >= 1"),
    ("[baselines]\nbootstrap_sims = 0\n", "bootstrap_sims must be >= 1, got 0"),
    ("[baselines]\nbootstrap_sims = -5\n", "bootstrap_sims must be >= 1, got -5"),
    ("[eval]\nregimes = 7\n", "unknown regime level 7"),
    ("[eval]\nshocks = -1.0\n", "fixed shock must be positive, got -1.0"),
    ("[eval]\nsweep_alphas = 1.5\n", r"alpha must be in \(0, 1\), got 1.5"),
    ("[run]\nlob = workers comp, other liability\n", "lob must hold no comma or line break"),
    ("[run]\nlob = workers comp\n  other liability\n", "lob must hold no comma or line break"),
    ("[run]\nseeds =\n", "no training seeds"),
    ("[ppo]\nepochs = 0\n", "epochs must be >= 1, got 0"),
    ("[ppo]\nhidden = 0\n", r"hidden widths must be >= 1, got \(0,\)"),
    ("[ppo]\nhidden = 16,-3\n", r"hidden widths must be >= 1, got \(16, -3\)"),
    ("[ppo]\nhidden = -3\n", r"hidden widths must be >= 1, got \(-3,\)"),
    ("[ppo]\nlearning_rate = -1\n", "learning_rate must be positive and finite, got -1.0"),
    ("[ppo]\nlearning_rate = 0\n", "learning_rate must be positive and finite, got 0.0"),
    ("[ppo]\nlearning_rate = inf\n", "learning_rate must be positive and finite, got inf"),
    ("[env]\nbuffer_capacity = 0\n", "buffer_capacity must be >= 1, got 0"),
    ("[env]\nwarmup_min = 0\n", "warmup_min must be >= 1, got 0"),
    ("[env]\nbuffer_capacity = 10\nwarmup_min = 11\n",
     r"warmup_min must be <= buffer_capacity \(10\), got 11"),
    ("[run]\nseeds = -1\n", "seeds must be >= 0, got -1"),
    ("[run]\nseeds = 1,-2\n", "seeds must be >= 0, got -2"),
    ("[eval]\ncrn_base = -1\n", "crn_base must be >= 0, got -1"),
    ("[baselines]\nbootstrap_seed = -1\n", "bootstrap_seed must be >= 0, got -1"),
    ("[regimes]\nlevels = 0,7\n", "unknown regime level 7"),
    ("[eval]\nregimes = 1,1\n", r"^\[eval\] regimes repeat: regime:1$"),
    ("[eval]\nshocks = 1.0,1\n", r"^\[eval\] shocks repeat: shock:1$"),
    ("[eval]\nsweep_alphas = 0.9,0.90\n",
     r"^\[eval\] sweep_alphas repeat: alpha:0.9;floor:default, alpha:0.9;floor:strict$"),
    ("[run]\na_train = 1\n", "a_train must be >= 2, got 1"),
    ("[run]\na_test = 0\n", "a_test must be >= 1, got 0"),
    # a non-finite float loads as a float, so only these rows keep it out of training and BF
    ("[env]\nvol_scale = nan\n", "^vol_scale must be finite, got nan$"),
    ("[env]\nnoise_gain = inf\n", "^noise_gain must be finite, got inf$"),
    ("[env]\nw_shortfall = inf\n", "^w_shortfall must be finite, got inf$"),
    ("[env]\nw_cvar = nan\n", "^w_cvar must be finite, got nan$"),
    ("[env]\nw_inefficiency = inf\n", "^w_inefficiency must be finite, got inf$"),
    ("[env]\nw_floor = nan\n", "^w_floor must be finite, got nan$"),
    ("[ppo]\nentropy_coef = nan\n", "^entropy_coef must be finite, got nan$"),
    ("[baselines]\nelr = nan\n", "^elr must be > 0 and finite, got nan$"),
    ("[baselines]\nelr = inf\n", "^elr must be > 0 and finite, got inf$"),
    ("[baselines]\nelr = -0.5\n", r"^elr must be > 0 and finite, got -0\.5$"),
    ("[baselines]\nelr = 0\n", r"^elr must be > 0 and finite, got 0\.0$"),
]


@pytest.mark.parametrize("body, message", INVALID_VALUES,
                         ids=[f"{body}-ConfigError" for body, _ in INVALID_VALUES])
def test_invalid_runtime_values_fail_on_load(tmp_path, body, message):
    path = write_ini(tmp_path, body)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["--config", path, "--print-config"]) == 1
    # refused at load, before a command makes its directory
    out = tmp_path / "runs"
    assert main(["--config", path, "--out", str(out), "train"]) == 1
    assert not (out / "train").exists()


@pytest.mark.parametrize("lob", [" wc", "wc ", "wc #1", "wc ;1", "wc\t;1"])
def test_lob_that_would_not_read_back_is_refused(lob):
    """``config_to_ini`` writes ``lob`` bare, so a lob that the INI would
    read back as another one (and so under another fingerprint) is refused."""
    with pytest.raises(ConfigError, match="lob must read back from the INI unchanged"):
        RunSection(lob=lob)


@pytest.mark.parametrize("lob", ["wc#1", "wc;1", "", "wc = 1", "[wc]", "50%", "50%%", "%(x)s"])
def test_lob_that_reads_back_loads_back(tmp_path, lob):
    cfg = RunConfig(run=RunSection(lob=lob))
    assert load_config(write_ini(tmp_path, config_to_ini(cfg))) == cfg


def test_unknown_regime_level_names_its_key(tmp_path, capsys):
    """The same unknown level in either list exits 1 with a line naming
    the key it sits under, so the two lines differ."""
    errors = []
    for key, body in (("[regimes] levels", "[regimes]\nlevels = 0,7\n"),
                      ("[eval] regimes", "[eval]\nregimes = 7\n")):
        assert main(["--config", write_ini(tmp_path, body), "--print-config"]) == 1
        errors.append(capsys.readouterr().err)
        assert errors[-1] == f"error: {key}: unknown regime level 7; known: [0, 1, 2, 3]\n"
    assert errors[0] != errors[1]


def test_smallest_counts_load(tmp_path):
    cfg = load_config(write_ini(
        tmp_path,
        "[eval]\nepisodes = 1\nsweep_episodes_per_level = 1\n[baselines]\nbootstrap_sims = 1\n",
    ))
    assert (cfg.eval.episodes, cfg.eval.sweep_episodes_per_level) == (1, 1)
    assert cfg.baselines.bootstrap_sims == 1


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert VERSION == project["version"]


def test_git_blob_sha1_matches_git(tmp_path):
    path = tmp_path / "blob.txt"
    path.write_bytes(b"some file contents\n")
    expected = subprocess.run(
        ["git", "hash-object", str(path)],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert git_blob_sha1(str(path)) == expected
    with pytest.raises(DataError, match="cannot hash .*missing.bin"):
        git_blob_sha1(str(tmp_path / "missing.bin"))


def test_build_and_write_manifest(tmp_path):
    blob = tmp_path / "input.csv"
    blob.write_text("a,b\n1,2\n")
    cfg = RunConfig()
    manifest = build_manifest(
        "train", cfg, inputs={"triangle": str(blob)}, outputs=["b.json", "a.csv"]
    )
    assert manifest["tool"] == "reserve-rl"
    assert manifest["command"] == "train"
    assert manifest["config_fingerprint"] == config_fingerprint(cfg)
    assert manifest["inputs"] == {"triangle": git_blob_sha1(str(blob))}
    assert manifest["outputs"] == ["a.csv", "b.json"]  # sorted
    assert "created_at" in manifest

    out = tmp_path / "manifest.json"
    write_json(str(out), manifest)
    assert json.loads(out.read_text()) == manifest
    with pytest.raises(DataError, match="cannot write .*m.json"):
        write_json(str(tmp_path / "nope" / "m.json"), manifest)

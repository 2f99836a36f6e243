"""Run configuration: INI files, canonical dumps, fingerprints, manifests.

A run is fully described by one INI file with six sections (``run``,
``env``, ``regimes``, ``ppo``, ``eval``, ``baselines``); every key has a
default, unknown sections or keys are rejected rather than ignored, and
the canonical re-serialization of the parsed config is hashed into a
fingerprint that artifacts carry in their sidecars.  ``[env]``,
``[regimes]`` and ``[ppo]`` load straight into :class:`EnvConfig`,
:class:`CurriculumSchedule` and :class:`PPOConfig`, so their checks run
as the file is read.  Manifests record what a command read and wrote
(with content digests) so outputs can be traced back to exact inputs;
their timestamps are informational and not part of any comparison.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Mapping, Sequence

from .artifacts import git_blob_sha1
from .env import DEFAULT_FLOOR, STRICT_FLOOR, EnvConfig
from .errors import ConfigError
from .agent import PPOConfig
from .evaluate import regime_conditions, sensitivity_label, stress_conditions
from .regimes import CurriculumSchedule, regime_params
from .triangles import SplitSpec

#: ``[project] version`` of ``pyproject.toml``, which a test keeps equal.
VERSION = "0.1.0"

#: ``[env] floor`` name -> the (base, slope) pair :class:`EnvConfig` holds.
FLOOR_FORMS: Mapping[str, tuple[float, float]] = {
    "default": DEFAULT_FLOOR,
    "strict": STRICT_FLOOR,
}

#: The words a true/false key takes, any case.
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

#: Worded key -> (word -> the value it stands for, the type of the key's
#: other values, or None where every value is a word).  A value is written
#: as its first word.
_WORDS: Mapping[str, tuple[Mapping[str, object], type | None]] = {
    "alpha": ({"adaptive": None}, float),
    "horizon": ({"auto": None, "": None}, int),
    "elr": ({"pooled": None}, float),
    "floor": (FLOOR_FORMS, None),
}


def _require_positive(section: object, *names: str) -> None:
    for name in names:
        if getattr(section, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(section, name)}")


def _require_seed(name: str, value: int) -> None:
    """numpy seeds its generators from non-negative integers only."""
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")


def _refuse_repeats(key: str, labels: Sequence[str]) -> None:
    repeated = [label for label in dict.fromkeys(labels) if labels.count(label) > 1]
    if repeated:
        raise ConfigError(f"{key} repeat: {', '.join(repeated)}")


#: The INI dialect: ``;`` and ``#`` comments, and no ``%`` interpolation,
#: since :func:`config_to_ini` writes every value as it is.
_ini_parser = partial(configparser.ConfigParser, inline_comment_prefixes=(";", "#"),
                      interpolation=None)


@dataclass(frozen=True)
class RunSection:
    lob: str = "synthetic"
    seed: int = 0
    seeds: tuple[int, ...] = (1, 2, 3)
    a_train: int = 8
    a_test: int = 2

    def __post_init__(self) -> None:
        # every metrics CSV carries lob in a field of its own, unquoted
        if any(c in self.lob for c in ",\r\n"):
            raise ConfigError(f"lob must hold no comma or line break, got {self.lob!r}")
        # written bare, a lob with end blanks or a " ;" or " #" comment would load back changed
        parser = _ini_parser()
        parser.read_string(f"[run]\nlob = {self.lob}\n")
        if parser.get("run", "lob") != self.lob:
            raise ConfigError(f"lob must read back from the INI unchanged, got {self.lob!r}")
        if not self.seeds:
            raise ConfigError("no training seeds: [run] seeds is empty")
        for seed in self.seeds:
            _require_seed("seeds", seed)
        # a repeated seed would count twice in n_seeds and the seed spread
        _refuse_repeats("[run] seeds", [str(seed) for seed in self.seeds])
        self.split  # SplitSpec checks the sizes

    @property
    def split(self) -> SplitSpec:
        """The ``a_train`` / ``a_test`` split (checked as the section loads)."""
        return SplitSpec(a_train=self.a_train, a_test=self.a_test)


@dataclass(frozen=True)
class EvalSection:
    episodes: int = 100
    regimes: tuple[int, ...] = (0, 1, 2, 3)
    shocks: tuple[float, ...] = (0.8, 1.0, 1.5, 2.0)
    crn_base: int = 0
    sweep_alphas: tuple[float, ...] = (0.90, 0.95, 0.99)
    sweep_episodes_per_level: int = 25

    def __post_init__(self) -> None:
        _require_positive(self, "episodes", "sweep_episodes_per_level")
        _require_seed("crn_base", self.crn_base)
        for level in self.regimes:
            regime_params(level, "[eval] regimes: ")
        for alpha in self.sweep_alphas:
            EnvConfig(alpha=alpha)
        # rows, trace files and sweep cells are keyed by the labels the
        # commands print, so two entries printing alike would share them
        _refuse_repeats("[eval] regimes", [label for label, _ in regime_conditions(self.regimes)])
        _refuse_repeats("[eval] shocks", [label for label, _ in stress_conditions(self.shocks)])
        _refuse_repeats("[eval] sweep_alphas", [
            sensitivity_label(alpha, name) for alpha in self.sweep_alphas for name in FLOOR_FORMS])


@dataclass(frozen=True)
class BaselineSection:
    bootstrap_sims: int = 1000
    bootstrap_seed: int = 7
    elr: float | None = None            # None -> pooled implied ratio

    def __post_init__(self) -> None:
        _require_positive(self, "bootstrap_sims")
        _require_seed("bootstrap_seed", self.bootstrap_seed)
        # Bornhuetter-Ferguson reserves scale with it
        if self.elr is not None and not 0.0 < self.elr < math.inf:
            raise ConfigError(f"elr must be > 0 and finite, got {self.elr!r}")


@dataclass(frozen=True)
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    env: EnvConfig = field(default_factory=EnvConfig)
    regimes: CurriculumSchedule = field(default_factory=CurriculumSchedule)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    baselines: BaselineSection = field(default_factory=BaselineSection)


#: Section name -> the dataclass it loads into, in canonical order.
_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)}


def _parse_scalar(name: str, raw: str, default: object) -> object:
    """Coerce ``raw`` to the type of ``default``, or through :data:`_WORDS`
    for a worded key."""
    raw = raw.strip()
    try:
        if name in _WORDS:
            words, other = _WORDS[name]
            if raw in words:
                return words[raw]
            if other is None:
                raise ConfigError(f"{name} must be one of {sorted(words)}, got {raw!r}")
            return other(raw)
        if isinstance(default, bool):
            return _BOOLS[raw.lower()]
        if isinstance(default, (int, float)):
            return type(default)(raw)
        if isinstance(default, tuple):
            if raw == "":
                return ()
            conv = type(default[0]) if default else int
            return tuple(conv(part.strip()) for part in raw.split(","))
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"could not parse {name} = {raw!r}") from exc


def load_config(path: str | None) -> RunConfig:
    """Read an INI file over the defaults; ``None`` gives pure defaults.

    Raises:
        ConfigError: Unknown section or key, unreadable file, an
            unparsable value, or a value its section's class rejects as it
            is built (the README's Configuration section lists them).
    """
    if path is None:
        return RunConfig()
    parser = _ini_parser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc

    sections = {}
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section_name}]")
        cls = _SECTION_TYPES[section_name]
        known = {f.name: f for f in fields(cls)}
        defaults = cls()
        values = {}
        for key, raw in parser.items(section_name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            values[key] = _parse_scalar(key, raw, getattr(defaults, key))
        sections[section_name] = cls(**values)
    return RunConfig(**sections)


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI rendering: fixed section and key order, repr floats.

    Raises:
        ConfigError: ``env.floor`` is not one of :data:`FLOOR_FORMS`.
    """
    lines = []
    for section_name in _SECTION_TYPES:
        section = getattr(cfg, section_name)
        lines.append(f"[{section_name}]")
        for f in fields(section):
            value = getattr(section, f.name)
            words, other = _WORDS.get(f.name, ({}, type(value)))
            named = [word for word, meaning in words.items() if meaning == value]
            if not named and other is None:
                raise ConfigError(f"{f.name} {value!r} is none of the forms {dict(words)}")
            lines.append(f"{f.name} = {named[0] if named else _format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def config_fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(config_to_ini(cfg).encode()).hexdigest()


# --- manifests -----------------------------------------------------------------

def build_manifest(
    command: str,
    cfg: RunConfig,
    inputs: Mapping[str, str],
    outputs: Sequence[str],
) -> dict:
    """Describe one command invocation: config identity, inputs, outputs.

    The ``created_at`` timestamp is informational only; comparisons
    between manifests must ignore it.
    """
    return {
        "tool": "reserve-rl",
        "version": VERSION,
        "command": command,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_fingerprint": config_fingerprint(cfg),
        "inputs": {name: git_blob_sha1(p) for name, p in sorted(inputs.items())},
        "outputs": sorted(outputs),
    }


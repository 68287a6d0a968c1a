"""Run configuration: INI-style file with typed defaults and overrides.

Every key belongs to a section; unknown sections, and then unknown keys,
are rejected with the full list of offenders so typos surface
immediately. Values on the command line (--set section.key=value) win
over the file.
"""

from __future__ import annotations

import configparser
import copy
import dataclasses
import typing
from typing import Any, Callable

from .errors import ConfigError
from .training import TrainConfig


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.replace(",", " ").split()]


def _opt_int(text: str) -> int | None:
    return None if not text.strip() else int(text)


def _str(text: str) -> str:
    return text.strip()


_TYPE_PARSERS = {int: int, float: float, str: _str, int | None: _opt_int}
_TRAIN_TYPES = typing.get_type_hints(TrainConfig)

# (section, key) -> (parser, default)
SCHEMA: dict[str, dict[str, tuple[Callable[[str], Any], Any]]] = {
    "data": {
        "dataset": (_str, "mnist"),
        "path": (_str, ""),
        "val_size": (int, 5000),
        "synth_kind": (_str, "parity-of-subset"),
        "synth_features": (int, 16),
        "synth_samples": (int, 2000),
        "limit_train": (_opt_int, None),
        "limit_test": (_opt_int, None),
    },
    "encoding": {
        "mode": (_str, "thermometer"),
        "thresholds": (int, 10),
    },
    "model": {
        "layer_widths": (_int_list, [1000, 1000, 1000]),
        "logit_scale": (float, 0.1),
    },
    # TrainConfig itself: a key is the field name in lower case, because
    # configparser lowercases keys; its parser follows the field's type.
    "train": {
        f.name.lower(): (_TYPE_PARSERS[_TRAIN_TYPES[f.name]], f.default)
        for f in dataclasses.fields(TrainConfig)
    },
}


def default_config() -> dict[str, dict[str, Any]]:
    return {
        sec: {key: copy.deepcopy(dv) for key, (_, dv) in keys.items()}
        for sec, keys in SCHEMA.items()
    }


def load_config(path: str | None) -> dict[str, dict[str, Any]]:
    """Parse an INI file onto the schema defaults. Each entry goes through
    apply_overrides as section.key=value; unknown sections are rejected
    first, also when they hold no keys."""
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read --config file: {path}")
    bad = sorted(set(parser.sections()) - SCHEMA.keys())
    if bad:
        raise ConfigError("unknown config keys: " + ", ".join(bad))
    apply_overrides(cfg, [
        f"{section}.{key}={value}"
        for section in parser.sections()
        for key, value in parser.items(section)
    ])
    return cfg


def apply_overrides(
    cfg: dict[str, dict[str, Any]], overrides: list[str]
) -> None:
    """Apply repeatable --set section.key=value flags in place."""
    bad = []
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override must look like section.key=value: {item!r}"
            )
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            bad.append(dotted)
            continue
        parse = SCHEMA[section][key][0]
        try:
            cfg[section][key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {dotted}: {exc}") from exc
    if bad:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(bad)))


def train_config_from(cfg: dict[str, dict[str, Any]]) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        **{f.name: t[f.name.lower()] for f in dataclasses.fields(TrainConfig)}
    )

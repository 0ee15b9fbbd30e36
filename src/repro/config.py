"""The only reader of the environment: the seven ``ZKROWNN_*`` settings.

Each :data:`VARIABLES` entry is parsed by the rule of its kind -- flag,
choice (stripped, lower-cased), worker count (an integer >= 0, 0 = the
usable CPUs) or fault plan (inline JSON or ``@path``).  Unset or blank
means the default; anything else the rule refuses raises
:class:`ConfigError` naming the variable and what it accepts.  Other
``ZKROWNN_*`` names are benchmark and test knobs, and are ignored.

Consumers call :func:`setting` when they always read their variable (the
observability switches, log level and fault plan at import, the rest when
a backend, engine or field op is first built); argument > environment >
default everywhere.  :func:`load` resolves all seven into a frozen
:class:`Settings` with each value's source, which ``GET /stats`` reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

__all__ = [
    "AUDIT_MODES", "BACKENDS", "ConfigError", "LOG_LEVELS",
    "Settings", "VARIABLES", "Variable", "choice", "fault_plan", "flag",
    "load", "setting", "worker_count",
]

BACKENDS = ("serial", "process")
AUDIT_MODES = ("off", "warn", "strict")
LOG_LEVELS = ("debug", "info", "warning", "error", "off")
_FLAGS = {"1": True, "true": True, "on": True, "yes": True,
          "0": False, "false": False, "off": False, "no": False}


class ConfigError(ValueError):
    """A setting outside what it accepts; the message names both."""


def _refuse(name: str, raw: str, accepted: str) -> ConfigError:
    return ConfigError(f"{name}={raw!r}: expected {accepted}")


def choice(name: str, raw: str, choices: Sequence[str]) -> str:
    """``raw`` stripped and lower-cased, if that is one of ``choices``."""
    value = raw.strip().lower()
    if value not in choices:
        raise _refuse(name, raw, "one of " + ", ".join(map(repr, choices)))
    return value


def flag(name: str, raw: str) -> bool:
    return _FLAGS[choice(name, raw, tuple(_FLAGS))]


def worker_count(name: str, raw: str) -> int:
    if not raw.strip().isdecimal():
        raise _refuse(name, raw, "an integer >= 0 (0: the usable CPUs)")
    return int(raw)


def fault_plan(name: str, raw: str) -> Dict[str, Any]:
    """The decoded ``{"seed": int, "specs": [...]}`` of inline JSON or
    ``@path``; :mod:`repro.service.faults` builds the plan from it."""
    text = raw.strip()
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        plan = json.loads(text)
    except (OSError, ValueError) as exc:
        raise _refuse(name, raw, f"inline JSON or @path ({exc})") from exc
    if not isinstance(plan, dict) or not isinstance(plan.get("specs"), list):
        raise _refuse(name, raw, 'a JSON object {"seed": int, "specs": [...]}')
    return plan


@dataclass(frozen=True)
class Variable:
    """One environment variable: its rule, default, and what it does."""

    env: str
    parse: Callable[[str, str], Any]
    accepts: str
    default: Any
    effect: str


VARIABLES: Dict[str, Variable] = {
    "backend": Variable(
        "ZKROWNN_BACKEND", partial(choice, choices=BACKENDS),
        "`serial`/`process`", None,
        "where proofs run; unset: serial for library calls, a process pool "
        "on two or more usable CPUs for the proof service"),
    "workers": Variable("ZKROWNN_WORKERS", worker_count, "integer ≥ 0", 0,
                        "prove workers and service dispatch threads; 0: usable CPUs"),
    "circuit_audit": Variable(
        "ZKROWNN_CIRCUIT_AUDIT", partial(choice, choices=AUDIT_MODES),
        "`off`/`warn`/`strict`", "off",
        "static circuit audit on the cold compile path"),
    "log_level": Variable(
        "ZKROWNN_LOG_LEVEL", partial(choice, choices=LOG_LEVELS),
        "`debug`/`info`/`warning`/`error`/`off`", "warning",
        "structured JSONL logs on stderr"),
    "obs": Variable("ZKROWNN_OBS", flag, "flag", True,
                    "tracing + metrics; off makes every hook a no-op"),
    "profile_kernels": Variable("ZKROWNN_PROFILE_KERNELS", flag, "flag", False,
                                "per-call MSM/NTT histograms"),
    "fault_plan": Variable("ZKROWNN_FAULT_PLAN", fault_plan, "JSON or `@path`", None,
                           "installs a process-global fault plan at import"),
}


@dataclass(frozen=True)
class Settings:
    """All seven settings, and for each whether it came from ``env`` or
    the ``default``."""

    backend: Optional[str]
    workers: int
    circuit_audit: str
    log_level: str
    obs: bool
    profile_kernels: bool
    fault_plan: Optional[Dict[str, Any]]
    sources: Mapping[str, str]

    def provenance(self) -> Dict[str, Dict[str, Any]]:
        """``{variable: {"value", "source"}}``, as ``GET /stats`` shows it."""
        return {
            var.env: {"value": getattr(self, key), "source": self.sources[key]}
            for key, var in VARIABLES.items()
        }


def _read(key: str):
    var = VARIABLES[key]
    raw = os.environ.get(var.env, "")
    if not raw.strip():
        return var.default, "default"
    return var.parse(var.env, raw), "env"


def setting(key: str) -> Any:
    """One setting: its variable parsed, or its default when unset."""
    return _read(key)[0]


def load() -> Settings:
    """Every setting at once, each with its source."""
    read = {key: _read(key) for key in VARIABLES}
    return Settings(**{key: value for key, (value, _) in read.items()},
                    sources={key: source for key, (_, source) in read.items()})

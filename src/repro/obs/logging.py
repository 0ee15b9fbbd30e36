"""Structured JSONL event logging, gated by ``ZKROWNN_LOG_LEVEL``.

One JSON object per line on stderr::

    {"at": 1754630000.123, "level": "info", "component": "server",
     "event": "http.request", "method": "GET", "path": "/health",
     "code": 200}

The default level is ``warning``: tests and benchmarks stay quiet, the
HTTP access log (``info``) exists but is opt-in, and the registry's
corruption warnings still surface.  ``ZKROWNN_LOG_LEVEL=off`` silences
everything.

The output stream is resolved at emit time (default ``sys.stderr``) so
pytest's capture and test-injected ``StringIO`` streams both work.

Every emitted line is also mirrored into stdlib :mod:`logging` under
``zkrownn.<component>`` so existing handlers (and pytest's ``caplog``)
observe the same events; a ``NullHandler`` on the ``zkrownn`` root keeps
the mirror silent when nothing is configured.
"""

from __future__ import annotations

import json
import logging as _stdlib_logging
import sys
import threading
import time
from typing import Dict, IO, Optional

from .. import config

__all__ = ["LEVELS", "Logger", "configure", "get_logger"]

LEVELS: Dict[str, int] = dict(zip(config.LOG_LEVELS, (10, 20, 30, 40, 100)))

_LOCK = threading.Lock()
_THRESHOLD: int = LEVELS[config.setting("log_level")]
_STREAM: Optional[IO[str]] = None  # None -> sys.stderr at emit time
_LOGGERS: Dict[str, "Logger"] = {}

# NullHandler: the stdlib mirror never triggers logging.lastResort (which
# would duplicate our stderr line) but still propagates to any handlers
# the embedding application -- or pytest's caplog -- installs on root.
_stdlib_logging.getLogger("zkrownn").addHandler(_stdlib_logging.NullHandler())


def configure(
    level: Optional[str] = None,
    stream: Optional[IO[str]] = None,
) -> None:
    """Override the level and/or destination stream (tests, CLI).

    ``configure(stream=None)`` leaves the stream as-is; pass
    ``stream=sys.stderr`` explicitly to reset it.
    """
    global _THRESHOLD, _STREAM
    with _LOCK:
        if level is not None:
            _THRESHOLD = LEVELS[config.choice("log level", level, config.LOG_LEVELS)]
        if stream is not None:
            _STREAM = stream


class Logger:
    """A named component's handle; emission checks one int threshold."""

    __slots__ = ("component", "_mirror")

    def __init__(self, component: str):
        self.component = component
        self._mirror = _stdlib_logging.getLogger(f"zkrownn.{component}")

    def _emit(self, level: str, event: str, fields: Dict[str, object]) -> None:
        if LEVELS[level] < _THRESHOLD:
            return
        record = {
            "at": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, default=str, separators=(",", ":"))
        try:
            self._mirror.log(LEVELS[level], "%s", line)
        except Exception:
            pass  # a broken user handler must never break the service
        with _LOCK:
            stream = _STREAM if _STREAM is not None else sys.stderr
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # closed stream at interpreter teardown

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit("error", event, fields)


def get_logger(component: str) -> Logger:
    with _LOCK:
        logger = _LOGGERS.get(component)
        if logger is None:
            logger = Logger(component)
            _LOGGERS[component] = logger
        return logger

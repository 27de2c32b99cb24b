"""Logging wiring for the ``repro`` library and harness CLI.

Library policy: every module logs through a child of the ``repro``
logger, which carries a :class:`logging.NullHandler` (installed by
``repro/__init__``) so importing the library never prints anything.

The harness CLI calls :func:`configure_logging` to attach a real stderr
handler; the level comes from ``--log-level`` or, failing that, the
``REPRO_LOG`` environment variable (e.g. ``REPRO_LOG=debug``).
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

#: Root logger name for the whole library.
LOGGER_NAME = "repro"

#: Environment variable consulted when no explicit level is given.
ENV_VAR = "REPRO_LOG"

LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: The level spec most recently applied by :func:`configure_logging`.
#: Worker processes start from an interpreter that never ran
#: :func:`configure_logging` (a fork server or a fresh ``spawn``), so the
#: parent must re-ship this explicitly (see :func:`effective_level_spec`).
_configured_spec: Optional[str] = None


def resolve_level(spec: str) -> int:
    """A logging level from a name ("debug") or a number ("10")."""
    if spec.isdigit():
        return int(spec)
    level = logging.getLevelName(spec.upper())
    if not isinstance(level, int):
        raise ValueError(f"unknown log level {spec!r}")
    return level


def configure_logging(
    level: Optional[str] = None, stream=None
) -> Optional[int]:
    """Attach a stderr handler to the ``repro`` logger.

    ``level`` falls back to ``$REPRO_LOG``; when neither is set this is
    a no-op (the library stays silent) and ``None`` is returned.
    Re-invocation replaces the previously attached CLI handler rather
    than stacking duplicates.
    """
    global _configured_spec
    spec = level or os.environ.get(ENV_VAR)
    if not spec:
        return None
    numeric = resolve_level(spec)
    _configured_spec = spec
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(numeric)
    logger.handlers = [
        handler
        for handler in logger.handlers
        if not getattr(handler, "_repro_cli_handler", False)
    ]
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler._repro_cli_handler = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    return numeric


def effective_level_spec() -> Optional[str]:
    """The log-level spec a worker process should inherit.

    ``--log-level`` historically configured only the parent process:
    worker processes start from an unconfigured interpreter (see
    :mod:`repro.procs`) and never saw it.  The
    pool and portfolio masters call this to ship the parent's effective
    spec (explicitly configured level, else ``$REPRO_LOG``) into each
    worker's ``configure_logging`` call.
    """
    return _configured_spec or os.environ.get(ENV_VAR) or None

"""How every ``REPRO_*`` on/off environment switch is read."""

import os


def env_flag(name: str) -> bool:
    """Whether *name* is set to ``1``/``true``/``yes``/``on`` (any case)."""
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")

"""The process entry of ``python -m prmeval`` and of the ``prmeval`` script.

A command is one short process whose objects nearly all live until it
exits, so `run` turns the cyclic garbage collector off before the CLI is
imported and freezes what is left when the command returns: no collector
pass runs during the command, and the collection at interpreter shutdown
has nothing to traverse.  The process still exits normally (atexit
handlers, the flush of stdout).  `prmeval.cli.main` leaves the collector
as it finds it, and importing this module changes nothing.
"""

from __future__ import annotations

import gc


def run(argv: list[str] | None = None) -> int:
    """`prmeval.cli.main` with the collector off, as the process's last work."""
    gc.disable()
    try:
        from .cli import main
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())

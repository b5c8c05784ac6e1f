"""Start the campaign daemon with the layer wrappers installed.

Usage (the traced ``service-store`` run)::

    python perfbench/launcher.py DUMP_DIR [python -m repro.service args...]

Installs :mod:`layers` and then calls the service's own ``main`` with the
remaining arguments.  When the daemon stops (SIGINT), its layer totals are
written to ``DUMP_DIR/layers-<pid>.json``.
"""

from __future__ import annotations

import sys

import layers


def main():
    dump_dir = sys.argv[1]
    layers.install(dump_dir)
    from repro.service.__main__ import main as service_main

    try:
        return service_main(sys.argv[2:])
    finally:
        layers.dump()


if __name__ == "__main__":
    sys.exit(main())

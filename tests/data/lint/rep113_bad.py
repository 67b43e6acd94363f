"""Toggling the garbage collector outside the bulk-load path (lint in repro)."""

import gc
from gc import freeze  # REP113


def build_fast(rows):
    """Copy rows with the collector off."""
    gc.disable()  # REP113
    try:
        return list(rows)
    finally:
        freeze()
        gc.enable()  # REP113

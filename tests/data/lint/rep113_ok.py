"""Reading the collector state and forcing a collection are fine."""

import gc


def build(graph, rows):
    """Bulk-load relationships; the graph owns the collector pause."""
    with graph.bulk_load():
        for source, target, rel_type in rows:
            graph.add_relationship(source, target, rel_type)
    return gc.isenabled()


def reclaim():
    """An explicit collection toggles nothing."""
    return gc.collect()

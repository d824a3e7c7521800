"""``ShardManager.reload()`` accounts for every shard in its report.

The report's ``acked``, ``respawned`` and ``pending`` lists partition
the shard ids: a shard the reload could neither reopen in place nor
respawn (dead and still backing off, unreachable, or a failed respawn
after a missing ack) is listed as ``pending`` instead of silently
missing.
"""

import random

from repro.net.shard import ShardManager, tree_spec
from repro.rtree.bulk import bulk_load
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore


def _file_tree(tmp_path, name, points):
    store = FilePageStore(str(tmp_path / name), page_size=1024)
    return bulk_load(points, file=PagedFile(store, page_size=1024))


def test_dead_shard_that_cannot_respawn_is_pending(tmp_path, monkeypatch):
    rng = random.Random(5)
    spec_p, spec_q = (
        tree_spec(_file_tree(
            tmp_path, name,
            [(rng.random(), rng.random()) for __ in range(80)],
        ))
        for name in ("p.pages", "q.pages")
    )
    with ShardManager(spec_p, spec_q, shards=2, supervise=False) as manager:
        dead = manager._shards[1].process
        dead.kill()
        dead.join(5.0)
        # The killed shard is still in respawn backoff.
        monkeypatch.setattr(manager, "_respawn", lambda shard: False)
        report = manager.reload(spec_p, spec_q)
    assert report["acked"] == [0]
    assert report["respawned"] == []
    assert report["pending"] == [1]

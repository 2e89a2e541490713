"""Result cache: LRU discipline, the one disk layout, concurrency.

The second half of this module is the disk-store concurrency battery:
several worker *processes* hammering one store directory with
overlapping canonical keys must never lose an update (every key ends up
on disk, readable), never publish a torn entry (every published file
parses as a complete ``repro.service/cache-entry/v1`` document), and
keep the hit-rate accounting consistent with what callers observed.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import ResultCache, SolveSummary


def entry(key: str, objective: float = 10.0) -> SolveSummary:
    return SolveSummary(
        key=key,
        solver="ssp",
        exact=True,
        objective=objective,
        mem_accesses=2,
        reg_accesses=3,
        registers_used=1,
        unused_registers=0,
        address_count=1,
        residency=(("x0", 0, 0),),
        memory_addresses=(("x1", 0),),
    )


def entry_path(store: Path, digest: str) -> Path:
    """Where a result entry lives: ``<store>/<digest[:2]>/<digest>.json``."""
    return store / digest[:2] / f"{digest}.json"


def test_get_put_and_stats():
    cache = ResultCache()
    assert cache.get("sha256:aa") is None
    cache.put(entry("sha256:aa"))
    hit = cache.get("sha256:aa")
    assert hit is not None and hit.objective == 10.0
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(0.5)


def test_lru_evicts_least_recently_used():
    cache = ResultCache(capacity=2)
    cache.put(entry("sha256:aa"))
    cache.put(entry("sha256:bb"))
    assert cache.get("sha256:aa") is not None  # promote aa
    cache.put(entry("sha256:cc"))  # evicts bb
    assert cache.get("sha256:bb") is None
    assert cache.get("sha256:aa") is not None
    assert cache.get("sha256:cc") is not None
    assert len(cache) == 2


def test_disk_store_round_trip(tmp_path):
    first = ResultCache(directory=tmp_path / "store")
    first.put(entry("sha256:aa", objective=42.5))
    # A fresh cache over the same directory serves the entry from disk.
    second = ResultCache(directory=tmp_path / "store")
    hit = second.get("sha256:aa")
    assert hit is not None
    assert hit.objective == 42.5
    assert hit.residency == (("x0", 0, 0),)
    assert second.stats()["hits"] == 1


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    store = tmp_path / "store"
    cache = ResultCache(directory=store)
    cache.put(entry("sha256:aa"))
    path = entry_path(store, "aa")
    path.write_text("{not json", encoding="utf-8")
    fresh = ResultCache(directory=store)
    assert fresh.get("sha256:aa") is None
    assert fresh.stats()["misses"] == 1


def test_mismatched_key_on_disk_is_a_miss(tmp_path):
    store = tmp_path / "store"
    path = entry_path(store, "aa")
    path.parent.mkdir(parents=True)
    data = entry("sha256:other").to_dict()
    path.write_text(json.dumps(data), encoding="utf-8")
    cache = ResultCache(directory=store)
    assert cache.get("sha256:aa") is None


def stale_entry_text(key: str, solver: str, exact: bool) -> str:
    """A cache-entry/v1 document written by hand, as an older release
    that cached fallback-solver answers would have left it."""
    return f"""{{
  "schema": "repro.service/cache-entry/v1",
  "key": "{key}",
  "solver": "{solver}",
  "exact": {str(exact).lower()},
  "objective": 357.5,
  "mem_accesses": 9,
  "reg_accesses": 4,
  "registers_used": 2,
  "unused_registers": 0,
  "address_count": 3,
  "residency": [["x0", 0, 1]],
  "memory_addresses": [["x1", 0]]
}}
"""


@pytest.mark.parametrize(
    "solver, exact", [("two_phase", False), ("cycle_canceling", True)]
)
def test_entry_not_written_by_the_exact_allocator_is_a_miss(
    tmp_path, solver, exact
):
    store = tmp_path / "store"
    path = entry_path(store, "aa")
    path.parent.mkdir(parents=True)
    path.write_text(
        stale_entry_text("sha256:aa", solver, exact), encoding="utf-8"
    )
    cache = ResultCache(directory=store)
    assert cache.get("sha256:aa") is None
    assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
    # The exact answer overwrites the stale one and is served from then on.
    cache.put(entry("sha256:aa", objective=209.0))
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert stored["solver"] == "ssp" and stored["exact"] is True
    hit = ResultCache(directory=store).get("sha256:aa")
    assert hit is not None and hit.objective == 209.0


def test_entry_round_trip_and_remap():
    original = entry("sha256:aa")
    rebuilt = SolveSummary.from_dict(original.to_dict())
    assert rebuilt == original
    remapped = original.remap({"x0": "alpha", "x1": "beta"})
    assert remapped.residency == (("alpha", 0, 0),)
    assert remapped.memory_addresses == (("beta", 0),)


def test_malformed_entry_rejected():
    with pytest.raises(ServiceError, match="schema"):
        SolveSummary.from_dict({"schema": "nope"})
    bad = entry("sha256:aa").to_dict()
    del bad["objective"]
    with pytest.raises(ServiceError, match="malformed"):
        SolveSummary.from_dict(bad)


def test_bad_capacity_rejected():
    with pytest.raises(ServiceError, match="capacity"):
        ResultCache(capacity=0)


# ---------------------------------------------------------------------------
# the one disk layout
# ---------------------------------------------------------------------------


def test_sharded_layout_places_entries_by_digest_prefix(tmp_path):
    store = tmp_path / "store"
    cache = ResultCache(directory=store)
    cache.put(entry("sha256:abcdef", objective=7.0))
    cache.put(entry("sha256:ab0000", objective=8.0))
    cache.put(entry("sha256:ff1234", objective=9.0))
    assert (store / "ab" / "abcdef.json").is_file()
    assert (store / "ab" / "ab0000.json").is_file()
    assert (store / "ff" / "ff1234.json").is_file()
    assert sorted(p.name for p in store.iterdir()) == ["ab", "ff"]


def test_flat_layout_file_is_a_miss_not_an_error(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    # Where an older batch --cache-dir run left its entries.
    (store / "aa.json").write_text(
        json.dumps(entry("sha256:aa", objective=11.0).to_dict()),
        encoding="utf-8",
    )
    cache = ResultCache(directory=store)
    assert cache.get("sha256:aa") is None
    assert cache.stats()["misses"] == 1
    # Re-solved once, the answer lands in the one layout.
    cache.put(entry("sha256:aa", objective=11.0))
    assert entry_path(store, "aa").is_file()
    assert ResultCache(directory=store).get("sha256:aa") is not None


def test_stats_make_no_file_system_call(tmp_path, monkeypatch):
    store = tmp_path / "store"
    cache = ResultCache(directory=store)
    cache.put(entry("sha256:aa"))
    cache.get("sha256:aa")

    def walk(*args, **kwargs):
        raise AssertionError("stats() touched the file system")

    for name in ("iterdir", "glob", "rglob", "stat"):
        monkeypatch.setattr(Path, name, walk)
    for name in ("scandir", "listdir"):
        monkeypatch.setattr(os, name, walk)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["entries"] == 1
    assert not {"shards", "disk_entries", "lint_disk_entries"} & set(stats)


# ---------------------------------------------------------------------------
# multiprocess concurrency: no lost updates, no torn files
# ---------------------------------------------------------------------------

#: Overlapping key set shared by every hammer worker: every worker
#: writes and reads every key, so all writers collide on all files.
_HAMMER_KEYS = tuple(
    f"sha256:{digest:02x}{'00' * 7}{digest:02x}" for digest in range(24)
)


def _expected_objective(key: str) -> float:
    """Deterministic per-key payload: lost/torn writes become visible."""
    return float(int(key.split(":", 1)[1][:2], 16)) + 0.25


def _hammer_worker(store: str, rounds: int, worker: int) -> tuple[int, int]:
    """One process: interleaved puts and gets over every shared key.

    Returns ``(lookups, hits)`` so the parent can check that this
    worker's own accounting reconciles (a get either hits or misses —
    corrupt intermediate states would surface as exceptions instead).
    """
    cache = ResultCache(directory=store, capacity=8)
    lookups = hits = 0
    for round_index in range(rounds):
        for offset, key in enumerate(_HAMMER_KEYS):
            if (offset + round_index + worker) % 2 == 0:
                cache.put(entry(key, objective=_expected_objective(key)))
            else:
                lookups += 1
                found = cache.get(key)
                if found is not None:
                    hits += 1
                    assert found.key == key
                    assert found.objective == _expected_objective(key)
    return lookups, hits


def test_concurrent_processes_never_lose_or_tear_updates(tmp_path):
    store = tmp_path / "store"
    workers = 4
    context = multiprocessing.get_context("fork")
    with context.Pool(workers) as pool:
        accounts = pool.starmap(
            _hammer_worker,
            [(str(store), 6, worker) for worker in range(workers)],
        )

    # Every worker's own accounting reconciles.
    for lookups, hits in accounts:
        assert 0 <= hits <= lookups

    # No lost updates: every key is present, complete and correct.
    survivor = ResultCache(directory=store)
    for key in _HAMMER_KEYS:
        found = survivor.get(key)
        assert found is not None, f"lost update for {key}"
        assert found.key == key
        assert found.objective == _expected_objective(key)
    stats = survivor.stats()
    assert stats["hits"] == len(_HAMMER_KEYS)
    assert stats["misses"] == 0
    assert stats["hit_rate"] == 1.0

    # No torn files: every published file is complete valid JSON, and
    # no temporary file leaked past its atomic rename.
    published = list(Path(store).rglob("*.json"))
    assert len(published) == len(_HAMMER_KEYS)
    for path in published:
        document = json.loads(path.read_text(encoding="utf-8"))
        rebuilt = SolveSummary.from_dict(document)
        assert rebuilt.objective == _expected_objective(rebuilt.key)
    assert list(Path(store).rglob("*.tmp")) == []

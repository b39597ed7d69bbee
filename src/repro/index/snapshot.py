"""The on-disk snapshot format, and generations of it.

**One snapshot** is a directory: a JSON manifest (``format_version`` 2, the
index settings, one entry per shard in shard order) plus one raw ``.npy``
per array under ``arrays/``, named ``shard_<position>__<key>`` — raw files
can be opened with ``mmap_mode="r"``, so a serving pool loads a snapshot
once and reads its pages on first touch instead of copying the matrices
up front.  A shard entry and
its arrays are whatever :meth:`EntityShard.export
<repro.index.shard.EntityShard.export>` produced (a cold shard has an entry
and no arrays); this module only moves them to and from disk.

:func:`write_snapshot` is crash-safe, also over an existing snapshot: the
manifest is the commit marker a reader looks at first, and each manifest is
tied to its arrays directory by a token, so :func:`read_snapshot` recovers
the right pairing if a crash lands between the renames.

**Generations.**  A live KB mutates; its serving replicas must not.  Each
:func:`write_generation` call persists the index into a *fresh*
``gen-NNNNNNNN`` directory under the store root and then atomically repoints
the ``CURRENT`` marker file (write-temp + rename, the POSIX atomic publish).
Readers — :func:`read_snapshot`, and through it
:meth:`BiEncoder.load_sharded_index
<repro.linking.biencoder.BiEncoder.load_sharded_index>` — resolve ``CURRENT``
first, so a reader either sees the complete old generation or the complete
new one, never a half-written directory.  :func:`compact_to_generation` is
the online-mutation endgame: compact every shard and publish the result,
while already-loaded replicas keep serving their (immutable, memory-mapped)
old generation until they are rolled.

Layout::

    store/
      CURRENT            -> "gen-00000002"   (atomic pointer)
      gen-00000001/      index.json + arrays/*.npy
      gen-00000002/      index.json + arrays/*.npy
"""

from __future__ import annotations

import json
import re
import shutil
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: On-disk snapshot format version written by :func:`write_snapshot`.
SNAPSHOT_FORMAT_VERSION = 2

#: File names inside a snapshot directory.
SNAPSHOT_MANIFEST = "index.json"
SNAPSHOT_ARRAYS = "arrays"

#: In-place re-save parks the committed arrays directory here until the new
#: manifest is committed; a crash between the renames leaves it recoverable.
SNAPSHOT_ARRAYS_OLD = "arrays.old"

#: Marker file inside an arrays directory echoing the manifest's
#: ``arrays_token`` — :func:`read_snapshot` uses it to pick the arrays
#: directory that matches the committed manifest after a crashed re-save.
SNAPSHOT_ARRAYS_TOKEN = "TOKEN"

#: Name of the atomic pointer file inside a generation store.
CURRENT_MARKER = "CURRENT"

_GENERATION_PATTERN = re.compile(r"^gen-(\d{8})$")

#: One shard's contribution: its manifest entry and its arrays by key.
ShardRecord = Tuple[Dict[str, Any], Dict[str, np.ndarray]]


def write_snapshot(
    path: Union[str, Path], settings: Dict[str, Any], shards: Sequence[ShardRecord]
) -> Path:
    """Write one snapshot directory; returns it.

    ``settings`` are the index-level manifest fields, ``shards`` one
    ``(entry, arrays)`` per shard in shard order.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        **settings,
        "shards": [entry for entry, _ in shards],
        "arrays_token": token,
    }
    # Write arrays into a temp directory, swap it in, then write the
    # manifest (temp file + rename): the manifest is the commit marker a
    # reader looks at first, so a crash mid-save never exposes a
    # half-written snapshot.  On an in-place re-save the committed
    # arrays directory is *renamed aside*, never deleted, until the new
    # manifest is committed; the token marker ties each manifest to its
    # arrays directory so read_snapshot() recovers the right pairing if a
    # crash lands between the renames.
    arrays_tmp = path / (SNAPSHOT_ARRAYS + ".tmp")
    if arrays_tmp.exists():
        shutil.rmtree(arrays_tmp)
    arrays_tmp.mkdir()
    for position, (_, arrays) in enumerate(shards):
        for key, array in arrays.items():
            np.save(
                arrays_tmp / f"shard_{position}__{key}.npy", np.ascontiguousarray(array)
            )
    (arrays_tmp / SNAPSHOT_ARRAYS_TOKEN).write_text(token)
    arrays_dir = path / SNAPSHOT_ARRAYS
    arrays_old = path / SNAPSHOT_ARRAYS_OLD
    if arrays_old.exists():
        shutil.rmtree(arrays_old)
    if arrays_dir.exists():
        arrays_dir.replace(arrays_old)
    arrays_tmp.replace(arrays_dir)
    manifest_tmp = path / (SNAPSHOT_MANIFEST + ".tmp")
    manifest_tmp.write_text(json.dumps(manifest, indent=1))
    manifest_tmp.replace(path / SNAPSHOT_MANIFEST)
    if arrays_old.exists():
        shutil.rmtree(arrays_old)
    return path


def read_snapshot(
    path: Union[str, Path], mmap: bool = False
) -> Tuple[Dict[str, Any], List[ShardRecord]]:
    """Read a snapshot back: ``(manifest, [(entry, arrays) per shard])``.

    If ``path`` is a generation store (contains a ``CURRENT`` marker) the
    current generation is read.  ``mmap=True`` opens every array with
    ``mmap_mode="r"`` — pages load on first touch, and the arrays are
    read-only views of the files.
    """
    path = Path(path)
    if not (path / SNAPSHOT_MANIFEST).exists() and (path / CURRENT_MARKER).exists():
        resolved = current_generation(path)
        assert resolved is not None  # marker exists, so this resolves
        path = resolved
    manifest = json.loads((path / SNAPSHOT_MANIFEST).read_text())
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot format version {version!r} (this build reads "
            f"version {SNAPSHOT_FORMAT_VERSION}; a version-1 npz snapshot must be "
            f"loaded and re-saved with a build from before the one-shard index)"
        )

    arrays_dir = path / SNAPSHOT_ARRAYS
    token = manifest.get("arrays_token")
    if token is not None:
        # A crash during an in-place re-save can leave the *new* arrays
        # directory in place while the committed manifest is still the
        # old one (or the arrays rename done but the swap-in not).  The
        # token marker written by write_snapshot() identifies which
        # directory the committed manifest describes.
        def _holds_token(candidate: Path) -> bool:
            marker = candidate / SNAPSHOT_ARRAYS_TOKEN
            try:
                return marker.read_text() == token
            except OSError:
                return False

        if not _holds_token(arrays_dir):
            fallback = path / SNAPSHOT_ARRAYS_OLD
            if _holds_token(fallback):
                arrays_dir = fallback
            else:
                raise ValueError(
                    f"snapshot at {path} is inconsistent: no arrays "
                    f"directory matches the manifest's arrays_token "
                    f"(interrupted save?)"
                )
    names = sorted(p.stem for p in arrays_dir.glob("*.npy"))
    shards: List[ShardRecord] = []
    for position, entry in enumerate(manifest["shards"]):
        codec = entry.get("codec", "float64")
        if codec != "float64":
            raise ValueError(
                f"snapshot at {path}: shard {position} is stored as {codec!r}; "
                f"this build reads float64 embeddings only"
            )
        # ``shard_N`` alone is the bare float64 matrix older builds wrote
        # for an exhaustive shard; it reads back under key "".
        stem = f"shard_{position}"
        arrays = {
            name[len(stem) + 2:]: np.load(
                arrays_dir / f"{name}.npy", mmap_mode="r" if mmap else None
            )
            for name in names
            if name == stem or name.startswith(stem + "__")
        }
        shards.append((entry, arrays))
    return manifest, shards


def generation_name(number: int) -> str:
    if number < 0:
        raise ValueError("generation numbers are non-negative")
    return f"gen-{number:08d}"


def list_generations(root: Union[str, Path]) -> List[Path]:
    """Generation directories under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = [
        child
        for child in root.iterdir()
        if child.is_dir() and _GENERATION_PATTERN.match(child.name)
    ]
    return sorted(found, key=lambda path: path.name)


def current_generation(root: Union[str, Path]) -> Optional[Path]:
    """The generation ``CURRENT`` points at, or None for an empty store.

    A dangling marker (pointing at a deleted directory) raises — that is
    store corruption, not an empty store.
    """
    root = Path(root)
    marker = root / CURRENT_MARKER
    if not marker.exists():
        return None
    name = marker.read_text().strip()
    if not _GENERATION_PATTERN.match(name):
        raise ValueError(f"corrupt {CURRENT_MARKER} marker: {name!r}")
    target = root / name
    if not target.is_dir():
        raise ValueError(
            f"{CURRENT_MARKER} points at missing generation {name!r}"
        )
    return target


def next_generation_number(root: Union[str, Path]) -> int:
    generations = list_generations(root)
    if not generations:
        return 1
    return int(_GENERATION_PATTERN.match(generations[-1].name).group(1)) + 1


def write_generation(index: Any, root: Union[str, Path]) -> Path:
    """Persist ``index`` as the next generation and atomically publish it.

    ``index`` is a :class:`~repro.linking.candidates.ShardedEntityIndex`.
    The snapshot is written into a fresh ``gen-NNNNNNNN`` directory first;
    only after its manifest is committed is the ``CURRENT`` marker swapped
    (temp file + rename), so readers never observe a partial generation.
    Returns the generation directory.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = generation_name(next_generation_number(root))
    target = root / name
    index.save(target)
    marker_tmp = root / (CURRENT_MARKER + ".tmp")
    marker_tmp.write_text(name)
    marker_tmp.replace(root / CURRENT_MARKER)
    return target


def compact_to_generation(index: Any, root: Union[str, Path]) -> Path:
    """Compact every materialised shard, then publish the next generation."""
    index.compact()
    return write_generation(index, root)

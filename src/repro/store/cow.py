"""Copy-on-write object representation: the zero-copy state plane.

The paper names **zero-copy** state sharing as one of Knactor's four
performance optimizations (§3.3).  The Object/Log hot paths used to
``copy.deepcopy`` every object on read, patch, watch delivery, RBAC
masking, and scan -- O(object) work per touch.  This module replaces
those copies with an immutable, structurally-shared representation:

- :class:`CowMap` / :class:`CowList` -- frozen ``dict`` / ``list``
  subclasses.  Being subclasses, every existing ``isinstance`` check,
  JSON encoder, and read path works unchanged; every mutator raises
  :class:`FrozenViewError`.  "Handing out a snapshot" becomes handing
  out the frozen view itself: O(1), zero bytes copied.
- :func:`freeze` -- the single ingest copy: convert caller-owned data
  into frozen containers once, at write time (leaves are shared;
  strings/numbers are immutable anyway).
- :func:`merge_shared` -- JSON-merge-patch by **path copy**: only the
  containers along patched paths are re-created; untouched siblings are
  shared by reference with the previous version.  "Copy" becomes
  O(depth of the patch), not O(object).
- :func:`thaw` -- the escape hatch: a plain, mutable deep copy for code
  that genuinely needs to edit a view locally.  ``copy.deepcopy`` on a
  frozen view does the same, so legacy copy-then-mutate code keeps
  working by construction.
- :class:`CopyMeter` -- copy accounting, so "we stopped copying" is a
  measured claim (``benchmarks/bench_zero_copy_delta.py``), not vibes.

Versions are persistent-data-structure style: a store that patches an
object gets a NEW frozen root sharing all unpatched subtrees with the
old one, so views handed out earlier remain consistent point-in-time
snapshots for free.
"""

import copy


class FrozenViewError(TypeError):
    """A mutation was attempted on a frozen (zero-copy) view.

    Reads from the state plane are immutable by design: they alias the
    store's live structure.  Use ``thaw()`` (or ``copy.deepcopy``) for a
    private mutable copy, or go through the store's patch/update APIs.
    """


def _blocked(name):
    def method(self, *args, **kwargs):
        raise FrozenViewError(
            f"cannot {name}() a frozen view; thaw() it for a mutable copy "
            "or mutate through the store's patch/update APIs"
        )

    method.__name__ = name
    return method


class CowMap(dict):
    """A frozen dict view.  Reads are plain dict reads; writes raise."""

    __slots__ = ("_size",)  # estimate_size, stored on first use

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    clear = _blocked("clear")
    pop = _blocked("pop")
    popitem = _blocked("popitem")
    setdefault = _blocked("setdefault")
    update = _blocked("update")
    __ior__ = _blocked("__ior__")

    def thaw(self):
        """A plain, mutable deep copy (leaves shared; they are immutable)."""
        return thaw(self)

    # ``copy.copy`` / ``copy.deepcopy`` hand back PLAIN containers: the
    # whole point of copying a frozen view is to mutate the result, and
    # this keeps pre-zero-copy code (copy-then-edit) working unchanged.
    def __copy__(self):
        return dict(self)

    def __deepcopy__(self, memo):
        return thaw(self)

    def __reduce__(self):
        return (dict, (dict(self),))


class CowList(list):
    """A frozen list view.  Reads are plain list reads; writes raise."""

    __slots__ = ("_size",)  # estimate_size, stored on first use

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __iadd__ = _blocked("__iadd__")
    __imul__ = _blocked("__imul__")
    append = _blocked("append")
    extend = _blocked("extend")
    insert = _blocked("insert")
    pop = _blocked("pop")
    remove = _blocked("remove")
    sort = _blocked("sort")
    reverse = _blocked("reverse")
    clear = _blocked("clear")

    def thaw(self):
        return thaw(self)

    def __copy__(self):
        return list(self)

    def __deepcopy__(self, memo):
        return thaw(self)

    def __reduce__(self):
        return (list, (list(self),))


def is_frozen(value):
    return isinstance(value, (CowMap, CowList))


def freeze(value, meter=None, site="ingest"):
    """Frozen version of ``value`` (the one ingest copy).

    Containers are re-created as frozen views; leaves are shared.
    Already-frozen subtrees are returned as-is -- re-freezing shared
    state is free, which is what makes path-copy merges cheap.
    """
    if is_frozen(value):
        return value
    if isinstance(value, dict):
        out = CowMap(
            (key, freeze(item)) for key, item in value.items()
        )
    elif isinstance(value, (list, tuple)):
        out = CowList(freeze(item) for item in value)
    else:
        return value
    if meter is not None:
        meter.record(estimate_size(out), site)
    return out


def thaw(value):
    """Plain mutable deep copy of a (possibly frozen) structure."""
    if isinstance(value, dict):
        return {key: thaw(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [thaw(item) for item in value]
    return value


def merge_shared(base, patch, meter=None, site="merge"):
    """JSON-merge-patch by path copy: returns a NEW frozen map.

    Semantics match :func:`repro.store.objectops.merge_patch` (``None``
    deletes, nested dicts merge per key, everything else replaces) --
    but only the containers along patched paths are allocated; all
    untouched subtrees are shared by reference with ``base``.  ``base``
    itself is never modified, so earlier views stay consistent.  A plain
    ``base`` is frozen first, so the result is frozen all the way down.
    """
    merged = _merge_shared(freeze(base), patch)
    if meter is not None:
        # The actual allocation: re-pointed entries along patched paths
        # plus the frozen patch payload -- NOT the whole object.
        meter.record(_path_copy_size(base, patch), site)
    return merged


def _merge_shared(base, patch):
    out = dict(base)  # shallow: shares every subtree reference
    for key, value in patch.items():
        if value is None:
            out.pop(key, None)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_shared(out[key], value)
        else:
            out[key] = freeze(value)
    return CowMap(out)


def _path_copy_size(base, patch):
    """Bytes materialized by one path-copy merge of ``patch`` into ``base``."""
    # Each re-created node costs its key slots (pointer work), plus the
    # new leaf payloads actually written.
    size = 2 + 8 * (len(base) + 1)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            size += _path_copy_size(base[key], value)
        elif value is not None:
            size += estimate_size(value)
    return size


def diff_shared(old, new):
    """The JSON-merge-patch turning ``old`` into ``new`` (both dicts).

    This is the delta the replication protocol ships instead of a full
    snapshot: keys present only in ``old`` become ``None`` (deletion
    markers), changed nested dicts recurse, everything else carries the
    new value.  Returns ``{}`` when the objects are equal.
    """
    delta = {}
    for key, value in new.items():
        previous = old.get(key, _MISSING)
        if previous is value or previous == value:
            continue
        if isinstance(value, dict) and isinstance(previous, dict):
            inner = diff_shared(previous, value)
            if inner:
                delta[key] = inner
        else:
            delta[key] = value
    for key in old:
        if key not in new:
            delta[key] = None
    return delta


def mask_shared(data, paths, meter=None):
    """Frozen view of ``data`` with the dotted ``paths`` removed.

    The RBAC masking path: instead of deep-copying the whole object and
    deleting secret leaves from the copy, express the mask as a deletion
    merge-patch and apply it by path copy -- unmasked subtrees are
    shared with the original view.
    """
    from repro.util.paths import get_path, split

    patch = {}
    for path in paths:
        parts = split(path)
        parent = data if len(parts) == 1 else get_path(
            data, parts[:-1], default=None
        )
        if isinstance(parent, dict) and parts[-1] in parent:
            node = patch
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if node is None:
                    break  # an enclosing path is masked already
            else:
                node[parts[-1]] = None
    if not patch:
        return freeze(data)
    return merge_shared(data, patch, meter=meter, site="mask")


_MISSING = object()


def copy_value(value, meter=None, site="snapshot"):
    """Classic deep copy, metered -- the baseline the COW path replaces.

    Stores running with ``zero_copy=False`` route every snapshot, scan,
    and mask through here so the benchmark's copied-bytes comparison is
    apples-to-apples.
    """
    if meter is not None:
        meter.record(estimate_size(value), site)
    return copy.deepcopy(value)


class CopyMeter:
    """Counts bytes materialized by state-plane copies, by site.

    Sites: ``ingest`` (data entering the store -- paid in every mode),
    ``snapshot`` (read/watch/view copies), ``merge`` (patch
    application), ``mask`` (RBAC masking), ``scan`` (Log scans),
    ``cache`` (informer read cache hits), ``wal`` (durable encoding).
    ``shared`` counts the reads that aliased instead of copying, and
    ``shared_bytes_avoided`` estimates what they would have copied.
    """

    def __init__(self):
        self.copied_bytes = 0
        self.copies = 0
        self.by_site = {}
        self.shared_views = 0
        self.shared_bytes_avoided = 0

    def record(self, nbytes, site):
        self.copied_bytes += nbytes
        self.copies += 1
        self.by_site[site] = self.by_site.get(site, 0) + nbytes

    def shared(self, nbytes=0):
        self.shared_views += 1
        self.shared_bytes_avoided += nbytes

    def snapshot(self):
        return {
            "copied_bytes": self.copied_bytes,
            "copies": self.copies,
            "by_site": dict(self.by_site),
            "shared_views": self.shared_views,
            "shared_bytes_avoided": self.shared_bytes_avoided,
        }

    @staticmethod
    def merge_snapshots(snapshots):
        """Aggregate several :meth:`snapshot` dicts (sharded frontends)."""
        merged = {
            "copied_bytes": 0, "copies": 0, "by_site": {},
            "shared_views": 0, "shared_bytes_avoided": 0,
        }
        for snap in snapshots:
            merged["copied_bytes"] += snap["copied_bytes"]
            merged["copies"] += snap["copies"]
            merged["shared_views"] += snap["shared_views"]
            merged["shared_bytes_avoided"] += snap["shared_bytes_avoided"]
            for site, nbytes in snap["by_site"].items():
                merged["by_site"][site] = (
                    merged["by_site"].get(site, 0) + nbytes
                )
        return merged


def estimate_size(value):
    """Rough serialized size in bytes; the one size model of the program.

    Virtual-time sizing (request args, watch ``wire_size``) and the
    :class:`CopyMeter` figures all read it.  A frozen view's size is
    computed once and stored on the view: views are immutable, so it
    cannot go stale, and a path-copied version re-walks only the
    containers it re-created.  Plain containers are walked every time.
    """
    if value is None:
        return 4
    if isinstance(value, bool):
        return 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 2
    if isinstance(value, (CowMap, CowList)):
        try:
            return value._size
        except AttributeError:
            size = value._size = _container_size(value)
            return size
    if isinstance(value, (list, tuple, dict)):
        return _container_size(value)
    return 16


def _container_size(value):
    if isinstance(value, dict):
        return 2 + sum(
            estimate_size(k) + estimate_size(v) + 2 for k, v in value.items()
        )
    return 2 + sum(estimate_size(v) + 1 for v in value)

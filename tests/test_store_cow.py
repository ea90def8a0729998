"""Unit tests for the copy-on-write object layer (`repro.store.cow`)."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.cow import (
    CopyMeter,
    CowList,
    CowMap,
    FrozenViewError,
    copy_value,
    diff_shared,
    estimate_size,
    freeze,
    is_frozen,
    mask_shared,
    merge_shared,
    thaw,
)


class TestFreeze:
    def test_freeze_produces_frozen_views(self):
        value = {"a": 1, "b": {"c": [1, 2, {"d": 3}]}}
        frozen = freeze(value)
        assert is_frozen(frozen)
        assert isinstance(frozen, dict)  # still a dict: isinstance-safe
        assert isinstance(frozen["b"], CowMap)
        assert isinstance(frozen["b"]["c"], CowList)
        assert frozen == value

    def test_freeze_is_idempotent_and_shares(self):
        frozen = freeze({"a": {"b": 1}})
        assert freeze(frozen) is frozen

    def test_tuple_becomes_frozen_list(self):
        frozen = freeze({"t": (1, 2)})
        assert isinstance(frozen["t"], CowList)
        assert frozen["t"] == [1, 2]

    def test_scalars_pass_through(self):
        for scalar in (None, True, 3, 2.5, "s"):
            assert freeze(scalar) is scalar

    def test_json_serializable(self):
        frozen = freeze({"a": [1, {"b": 2}]})
        assert json.loads(json.dumps(frozen)) == {"a": [1, {"b": 2}]}


class TestFrozenSemantics:
    def test_map_mutators_raise(self):
        frozen = freeze({"a": 1})
        with pytest.raises(FrozenViewError):
            frozen["b"] = 2
        with pytest.raises(FrozenViewError):
            del frozen["a"]
        with pytest.raises(FrozenViewError):
            frozen.update({"b": 2})
        with pytest.raises(FrozenViewError):
            frozen.pop("a")
        with pytest.raises(FrozenViewError):
            frozen.clear()
        with pytest.raises(FrozenViewError):
            frozen.setdefault("b", 2)
        assert frozen == {"a": 1}

    def test_list_mutators_raise(self):
        frozen = freeze([1, 2])
        with pytest.raises(FrozenViewError):
            frozen.append(3)
        with pytest.raises(FrozenViewError):
            frozen[0] = 9
        with pytest.raises(FrozenViewError):
            frozen.sort()
        with pytest.raises(FrozenViewError):
            frozen += [3]
        assert list(frozen) == [1, 2]

    def test_frozen_error_is_a_type_error(self):
        # Code catching TypeError for "immutable" keeps working.
        assert issubclass(FrozenViewError, TypeError)

    def test_thaw_gives_plain_mutable_copy(self):
        frozen = freeze({"a": {"b": [1]}})
        mine = frozen.thaw()
        assert type(mine) is dict
        assert type(mine["a"]) is dict
        assert type(mine["a"]["b"]) is list
        mine["a"]["b"].append(2)
        assert frozen["a"]["b"] == [1]

    def test_deepcopy_gives_plain_mutable_copy(self):
        frozen = freeze({"a": {"b": [1]}})
        mine = copy.deepcopy(frozen)
        assert type(mine) is dict
        mine["a"]["b"].append(2)
        assert frozen["a"]["b"] == [1]

    def test_shallow_copy_gives_plain_dict(self):
        frozen = freeze({"a": 1})
        assert type(copy.copy(frozen)) is dict
        assert type(dict(frozen)) is dict


class TestMergeShared:
    def test_merge_semantics_match_merge_patch(self):
        from repro.store.objectops import merge_patch

        base = {"a": {"x": 1, "y": 2}, "b": 1, "c": [1, 2]}
        patch = {"a": {"y": 9, "z": 3}, "b": None, "d": "new"}
        assert merge_shared(freeze(base), patch) == merge_patch(base, patch)

    def test_base_is_untouched(self):
        base = freeze({"a": {"x": 1}})
        merge_shared(base, {"a": {"x": 2}})
        assert base == {"a": {"x": 1}}

    def test_untouched_subtrees_are_shared(self):
        base = freeze({"hot": {"v": 1}, "cold": {"big": [1] * 100}})
        merged = merge_shared(base, {"hot": {"v": 2}})
        assert merged["cold"] is base["cold"]  # pointer-shared, not copied
        assert merged["hot"]["v"] == 2

    def test_result_is_frozen(self):
        merged = merge_shared(freeze({"a": 1}), {"b": {"c": 2}})
        assert is_frozen(merged)
        assert is_frozen(merged["b"])
        with pytest.raises(FrozenViewError):
            merged["b"]["c"] = 9

    def test_none_deletes(self):
        merged = merge_shared(freeze({"a": 1, "b": 2}), {"a": None})
        assert merged == {"b": 2}

    def test_meter_charges_path_not_object(self):
        meter = CopyMeter()
        base = freeze({"hot": {"v": 1}, "cold": {"blob": "x" * 10_000}})
        merge_shared(base, {"hot": {"v": 2}}, meter)
        # A deepcopy would have cost >10KB; the path copy is tiny.
        assert 0 < meter.copied_bytes < 1_000


class TestDiffShared:
    def test_diff_roundtrips_through_merge(self):
        old = freeze({"a": {"x": 1, "y": 2}, "b": 1, "keep": "k"})
        new = freeze({"a": {"x": 1, "y": 9, "z": 3}, "keep": "k", "c": [1]})
        delta = diff_shared(old, new)
        assert merge_shared(old, delta) == new

    def test_equal_objects_diff_empty(self):
        value = freeze({"a": {"b": [1, 2]}})
        assert diff_shared(value, value) == {}

    def test_removed_keys_become_none(self):
        assert diff_shared({"a": 1, "b": 2}, {"a": 1}) == {"b": None}

    def test_nested_change_is_minimal(self):
        old = {"a": {"x": 1, "y": 2}, "blob": "x" * 1000}
        new = {"a": {"x": 1, "y": 3}, "blob": "x" * 1000}
        delta = diff_shared(old, new)
        assert delta == {"a": {"y": 3}}
        assert estimate_size(delta) < estimate_size(new) / 10


class TestMaskShared:
    def test_masks_secret_leaves(self):
        data = freeze({"public": 1, "card": {"number": "4111", "exp": "12/30"}})
        masked = mask_shared(data, ["card.number"])
        assert masked == {"public": 1, "card": {"exp": "12/30"}}
        assert data["card"]["number"] == "4111"  # original intact

    def test_unmasked_subtrees_shared(self):
        data = freeze({"keep": {"big": [1] * 50}, "secret": "s"})
        masked = mask_shared(data, ["secret"])
        assert masked["keep"] is data["keep"]

    def test_missing_paths_are_noops(self):
        data = freeze({"a": 1})
        assert mask_shared(data, ["nope", "a.b.c"]) == {"a": 1}

    def test_scalar_parent_not_replaced(self):
        # Masking x.y where x is a scalar must not turn x into a dict.
        data = freeze({"x": 5})
        assert mask_shared(data, ["x.y"]) == {"x": 5}

    def test_nested_path_under_a_masked_path(self):
        data = freeze({"a": {"b": 1, "c": 2}, "d": 3})
        for paths in (["a", "a.b"], ["a.b", "a"]):
            assert mask_shared(data, paths) == {"d": 3}


class TestCopyMeter:
    def test_records_by_site(self):
        meter = CopyMeter()
        copy_value({"a": "x" * 100}, meter, "snapshot")
        copy_value({"b": 1}, meter, "mask")
        snap = meter.snapshot()
        assert snap["copies"] == 2
        assert set(snap["by_site"]) == {"snapshot", "mask"}
        assert snap["copied_bytes"] > 100

    def test_shared_accounting(self):
        meter = CopyMeter()
        meter.shared(500)
        assert meter.shared_views == 1
        assert meter.shared_bytes_avoided == 500

    def test_merge_snapshots(self):
        a, b = CopyMeter(), CopyMeter()
        a.record(100, "ingest")
        b.record(50, "ingest")
        b.record(10, "merge")
        merged = CopyMeter.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["copied_bytes"] == 160
        assert merged["by_site"] == {"ingest": 150, "merge": 10}


class TestThaw:
    def test_thaw_deep(self):
        frozen = freeze({"a": [{"b": 1}]})
        plain = thaw(frozen)
        assert type(plain) is dict
        assert type(plain["a"]) is list
        assert type(plain["a"][0]) is dict

    def test_thaw_passthrough_scalars(self):
        assert thaw(5) == 5
        assert thaw("s") == "s"


# -- the size memo on frozen views ------------------------------------------

_keys = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=8))
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_keys, kids, max_size=4),
    max_leaves=20,
)
_objects = st.dictionaries(_keys, _json, max_size=5)


def _frozen_nodes(value):
    """Every frozen container in ``value``, root first."""
    if is_frozen(value):
        yield value
        children = value.values() if isinstance(value, dict) else value
        for child in children:
            yield from _frozen_nodes(child)


def _assert_stored_sizes_fresh(root):
    """Each stored size equals a fresh walk of the node's thawed copy."""
    for node in _frozen_nodes(root):
        stored = getattr(node, "_size", None)
        if stored is not None:
            assert stored == estimate_size(thaw(node))


class TestSizeMemo:
    @settings(max_examples=60, deadline=None)
    @given(value=_json)
    def test_frozen_size_matches_thawed_on_every_call(self, value):
        frozen = freeze(value)
        expected = estimate_size(thaw(frozen))
        assert expected == estimate_size(value)
        assert estimate_size(frozen) == expected  # computes and stores
        assert estimate_size(frozen) == expected  # reads the stored size
        _assert_stored_sizes_fresh(frozen)

    @settings(max_examples=60, deadline=None)
    @given(base=_objects, patch=_objects)
    def test_merge_shared_root_size_is_fresh(self, base, patch):
        frozen = freeze(base)
        estimate_size(frozen)  # store sizes on every subtree the merge shares
        merged = merge_shared(frozen, patch)
        assert estimate_size(merged) == estimate_size(thaw(merged))
        assert merged._size == estimate_size(thaw(merged))
        _assert_stored_sizes_fresh(merged)
        # The old version keeps its own, still-correct size.
        assert estimate_size(frozen) == estimate_size(base)

    @settings(max_examples=60, deadline=None)
    @given(data=_objects, choices=st.data())
    def test_mask_shared_root_size_is_fresh(self, data, choices):
        frozen = freeze(data)
        estimate_size(frozen)
        paths = [key for key in data if choices.draw(st.booleans())]
        nested = [f"{key}.{inner}" for key, value in data.items()
                  if isinstance(value, dict) for inner in value]
        paths += nested[:2]
        masked = mask_shared(frozen, paths)
        assert estimate_size(masked) == estimate_size(thaw(masked))
        assert masked._size == estimate_size(thaw(masked))
        _assert_stored_sizes_fresh(masked)

    def test_merge_over_plain_base_is_frozen_all_the_way_down(self):
        base = {"a": {"b": [1, 2]}, "c": {"d": 1}}
        merged = merge_shared(base, {"c": {"e": 2}})
        assert is_frozen(merged["a"]) and is_frozen(merged["a"]["b"])
        size = estimate_size(merged)
        base["a"]["b"].append(3)  # the caller's data; the view is unaffected
        assert estimate_size(merged) == size == estimate_size(thaw(merged))

    @settings(max_examples=40, deadline=None)
    @given(value=_json.filter(lambda v: isinstance(v, (dict, list))))
    def test_copies_of_a_sized_view_are_plain_and_same_size(self, value):
        frozen = freeze(value)
        size = estimate_size(frozen)
        plain_type = dict if isinstance(value, dict) else list
        for copied in (copy.copy(frozen), copy.deepcopy(frozen),
                       pickle.loads(pickle.dumps(frozen))):
            assert type(copied) is plain_type
            assert not hasattr(copied, "_size")
            assert estimate_size(copied) == size

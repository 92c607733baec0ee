"""Tests for canonical hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import hash_bytes, hash_hex, hash_pair, hash_value
from repro.crypto.hashing import _canonical, _canonical_recursive
from repro.errors import CryptoError


class TestHashBytes:
    def test_known_digest_length(self):
        assert len(hash_bytes(b"abc")) == 32

    def test_hex_digest_length(self):
        assert len(hash_hex(b"abc")) == 64

    def test_hex_matches_bytes(self):
        assert hash_bytes(b"xyz").hex() == hash_hex(b"xyz")

    def test_empty_input(self):
        assert hash_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


class TestHashValue:
    def test_deterministic(self):
        assert hash_value([1, "a", 2.5]) == hash_value([1, "a", 2.5])

    def test_type_tags_distinguish_int_and_str(self):
        assert hash_value(1) != hash_value("1")

    def test_bool_is_not_int(self):
        assert hash_value(True) != hash_value(1)

    def test_false_is_not_zero(self):
        assert hash_value(False) != hash_value(0)

    def test_none_supported(self):
        assert hash_value(None) != hash_value("")

    def test_float_and_int_distinct(self):
        assert hash_value(1.0) != hash_value(1)

    def test_bytes_supported(self):
        assert hash_value(b"raw") != hash_value("raw")

    def test_list_and_tuple_equivalent(self):
        assert hash_value([1, 2]) == hash_value((1, 2))

    def test_nesting_changes_digest(self):
        assert hash_value([1, [2, 3]]) != hash_value([1, 2, 3])

    def test_list_order_matters(self):
        assert hash_value([1, 2]) != hash_value([2, 1])

    def test_dict_key_order_irrelevant(self):
        assert hash_value({"a": 1, "b": 2}) == hash_value({"b": 2, "a": 1})

    def test_dict_differs_from_item_list(self):
        assert hash_value({"a": 1}) != hash_value([["a", 1]])

    def test_unhashable_type_raises(self):
        with pytest.raises(CryptoError):
            hash_value(object())

    def test_string_length_prefix_prevents_concat_collision(self):
        assert hash_value(["ab", "c"]) != hash_value(["a", "bc"])

    @given(st.lists(st.integers(), max_size=20))
    def test_property_determinism(self, values):
        assert hash_value(values) == hash_value(list(values))

    @given(
        st.lists(st.integers(), min_size=1, max_size=10),
        st.lists(st.integers(), min_size=1, max_size=10),
    )
    def test_property_distinct_lists_distinct_digests(self, left, right):
        if left != right:
            assert hash_value(left) != hash_value(right)


class TestHashPair:
    def test_order_matters(self):
        a, b = hash_value("a"), hash_value("b")
        assert hash_pair(a, b) != hash_pair(b, a)

    def test_digest_is_hex(self):
        digest = hash_pair(hash_value("x"), hash_value("y"))
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, float("nan"), 1e-15, -1e-15]),
    st.text(),
    st.sampled_from(["", "é", "☃", "\x00", "naïve 𝔘"]),
    st.binary(max_size=8),
)


class TestFlatFastPath:
    """``_canonical`` must emit exactly the recursive encoder's bytes."""

    @given(st.lists(_scalars, max_size=12))
    def test_flat_lists_match_recursive(self, values):
        assert _canonical(values) == _canonical_recursive(values)
        assert _canonical(tuple(values)) == _canonical_recursive(tuple(values))

    @given(st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    ))
    def test_nested_values_match_recursive(self, value):
        assert _canonical(value) == _canonical_recursive(value)

    @pytest.mark.parametrize("left, right", [
        ([True], [1]),
        ([False], [0]),
        ([1], [1.0]),
        ([0.0], [-0.0]),
        (["1"], [1]),
        ([None], [""]),
        ([b"a"], ["a"]),
        (["ab", "c"], ["a", "bc"]),
        ([[1, 2]], [1, 2]),
    ])
    def test_type_tags_survive_the_fast_path(self, left, right):
        assert _canonical(left) == _canonical_recursive(left)
        assert _canonical(left) != _canonical(right)

    def test_nan_encodes_stably(self):
        nan = float("nan")
        assert _canonical([nan]) == _canonical([float("nan")]) == b"L:15:F:nan"

    def test_scalar_subclasses_fall_back(self):
        class Tag(str):
            pass

        assert _canonical([Tag("x"), 1]) == _canonical_recursive(["x", 1])

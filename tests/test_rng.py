"""Counter-based generator: determinism, ranges, and stream independence."""

import numpy as np
import pytest

import reference
from vld.rng import Rng, _fnv1a, _mix


def test_same_seed_same_stream():
    a = Rng(1)
    b = Rng(1)
    np.testing.assert_array_equal(a.raw(16), b.raw(16))
    np.testing.assert_array_equal(a.normal((8,)), b.normal((8,)))


def test_frozen_golden_words_for_seed_one():
    # Pins the word stream so refactors cannot silently change every
    # downstream initialization.
    words = Rng(1).raw(4)
    assert words.tolist() == [
        10451216379200822465,
        13757245211066428519,
        17911839290282890590,
        8196980753821780235,
    ]


def test_different_seeds_differ():
    assert Rng(1).raw(4).tolist() != Rng(2).raw(4).tolist()


def test_uniform_range_and_shape():
    u = Rng(3).uniform((1000,), low=-2.0, high=5.0)
    assert u.shape == (1000,)
    assert (u >= -2.0).all() and (u < 5.0).all()


def test_normal_moments_are_plausible():
    z = Rng(4).normal((20000,))
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.0) < 0.05


def test_permutation_is_a_permutation():
    perm = Rng(5).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_choice_without_replacement_unique():
    picks = Rng(6).choice(30, 10)
    assert len(set(picks.tolist())) == 10


def test_integers_in_bound():
    draws = Rng(7).integers(500, 13)
    assert (draws >= 0).all() and (draws < 13).all()


def test_split_streams_are_independent_and_stable():
    root = Rng(8)
    a1 = root.split("alpha").raw(4)
    b1 = root.split("beta").raw(4)
    a2 = Rng(8).split("alpha").raw(4)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b1.tolist()


def test_split_ignores_parent_counter():
    root = Rng(9)
    before = root.split("x").raw(2)
    root.raw(100)
    after = root.split("x").raw(2)
    np.testing.assert_array_equal(before, after)


@pytest.mark.parametrize("prior", [0, 7])
def test_permutation_equals_one_randint_per_swap(prior):
    """Same output and same counter as the sequential definition, for
    every n up to 40 and after earlier draws."""
    fast, slow = Rng(11).split("perm"), Rng(11).split("perm")
    fast.raw(prior)
    slow.raw(prior)
    for n in range(41):
        np.testing.assert_array_equal(fast.permutation(n),
                                      reference.permutation(slow, n))
        assert fast.permutation(n).dtype == np.int64
        reference.permutation(slow, n)
        assert fast.raw(1).tolist() == slow.raw(1).tolist()


@pytest.mark.parametrize("tag", ["", "a", "data-synth", "tr12/infrared/3",
                                 "identity119", "λ", "名前/赤外線", "\x00\xff",
                                 "x" * 200])
def test_fnv1a_equals_uint64_definition(tag):
    assert _fnv1a(tag) == int(reference.fnv1a(tag))
    key = np.uint64(0xDEADBEEF)
    assert Rng(5, key=int(key)).split(tag)._key == \
        _mix(np.asarray(key ^ reference.fnv1a(tag), dtype=np.uint64))

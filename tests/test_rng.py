import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import rng
from formlab.rng import mix, mulhilo, philox, philox_words

_MASK = (1 << 64) - 1


def _mix_reference(seed, *stream):
    """The label hash step by step from the seed, with nothing memoized."""

    def step(state):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return state, z ^ (z >> 31)

    state, out = step(seed & _MASK)
    for part in stream:
        words = part.encode() if isinstance(part, str) else [int(part) & _MASK]
        for word in words:
            state, h = step(state ^ word)
            out ^= h
    return out


def test_same_label_same_stream():
    a = philox(42, "exp", 7).integers(0, 1 << 30, size=16)
    b = philox(42, "exp", 7).integers(0, 1 << 30, size=16)
    assert (a == b).all()


def test_different_labels_differ():
    a = philox(42, "exp", 7).integers(0, 1 << 30, size=16)
    b = philox(42, "exp", 8).integers(0, 1 << 30, size=16)
    c = philox(43, "exp", 7).integers(0, 1 << 30, size=16)
    assert (a != b).any() and (a != c).any()


def test_mix_is_order_sensitive():
    assert mix(1, "a", "b") != mix(1, "b", "a")
    assert mix(1, 2) != mix(2, 1)


def test_mix_frozen_values():
    # Pinned so stored manifests stay decodable and every Philox stream
    # (hence every sampled form) stays the same across refactors.
    assert mix(0) == 16294208416658607535
    assert mix(42, "key0", "cube", 0) == 4528859349166445182
    assert mix(42, "key1", "cube", 12345) == 17190752075194185234
    assert mix(7, "a", -5) == 2888987519222454307
    assert mix(7, "x", 2**70 + 3) == 12179324802521098526
    assert mix(9, "\u03bb\u00e9", "\u00fc") == 18148167754563787630
    assert philox(42, "cube", 7).integers(-1000, 1001, size=4).tolist() == [50, 777, -823, -651]
    assert philox(42, "cube", 7).random(2).tolist() == [0.8885093726042697, 0.17480018434322397]
    assert 0 <= mix(123, "x", 9) < 1 << 64


_parts = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-(2**65), 2**65), prefix=st.lists(_parts, max_size=3),
       tails=st.lists(_parts, max_size=4), others=st.lists(st.lists(_parts, max_size=4), max_size=3),
       order=st.randoms(use_true_random=False))
def test_mix_matches_unmemoized_reference(seed, prefix, tails, others, order):
    # labels that share leading parts, the empty label and unrelated ones,
    # called in a random order from a cold cache and again warm
    labels = [tuple(prefix)] + [(*prefix, t) for t in tails] + [tuple(o) for o in others]
    want = {label: _mix_reference(seed, *label) for label in labels}
    rng._prefix.cache_clear()
    for _ in range(2):
        order.shuffle(labels)
        for label in labels:
            assert mix(seed, *label) == want[label], label


def test_draws_are_schedule_independent():
    # Drawing for index 5 never depends on whether index 4 was drawn first.
    g5 = philox(9, 5).random(4)
    _ = philox(9, 4).random(1000)
    g5_again = philox(9, 5).random(4)
    assert (g5 == g5_again).all()
    assert isinstance(philox(0), np.random.Generator)


def test_philox_words_match_random_raw():
    idx = [0, -1, 2**63 - 1]
    for seed in (0, 42, 2**64 - 1):
        for words in range(10):
            got = philox_words(seed, "cube", indices=idx, words=words)
            assert got.dtype == np.uint64 and got.shape == (len(idx), words)
            for i, row in zip(idx, got.tolist()):
                assert row == philox(seed, "cube", i).bit_generator.random_raw(words).tolist()
    assert philox_words(3, "a", 7, indices=[], words=5).shape == (0, 5)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, _MASK), b=st.integers(0, _MASK))
def test_mulhilo_is_the_128_bit_product(a, b):
    hi, lo = mulhilo(np.array([a], dtype=np.uint64), np.uint64(b))
    assert (int(hi[0]) << 64) + int(lo[0]) == a * b

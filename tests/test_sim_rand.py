"""Unit tests for deterministic random streams."""

from repro.sim import RandomStreams, derive_seed


def test_same_name_same_stream_object():
    streams = RandomStreams(7)
    assert streams.stream("a") is streams.stream("a")


def test_streams_reproducible_across_instances():
    first = RandomStreams(42).stream("disk").random()
    second = RandomStreams(42).stream("disk").random()
    assert first == second


def test_different_names_differ():
    streams = RandomStreams(42)
    assert streams.stream("a").random() != streams.stream("b").random()


def test_different_master_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_derive_seed_is_stable_and_64bit():
    seed = derive_seed(123, "stream")
    assert seed == derive_seed(123, "stream")
    assert 0 <= seed < 2 ** 64

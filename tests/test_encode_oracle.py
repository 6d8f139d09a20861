"""Differential tests: the encoder's ``bytes.translate`` front end against
the ``rank_lut`` front end it replaced.

``oracle_encode_block`` is the earlier ``encode_block`` kept as the
reference: it gathers ``rank_lut`` over the block, finds the escapes where
a rank is negative and walks the ranks with the placeholder substituted.
The library must give the same block for every message, from the same two
alphabet tables on every dictionary, and the block must decode back.
"""

import hypothesis
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ricemarlin import (
    MarlinDictionary, SyntheticFamily, decode_block, encode_block, make_distribution,
    pack_reminders,
)
from ricemarlin.bitpack import pack_units
from ricemarlin.dictionary import RAW_INDEX, DictionarySet, split_alphabet
from ricemarlin.encoder import CompressedBlock
from ricemarlin.errors import BuildError, EntropyTargetError
from ricemarlin.source import FAMILIES, point_mass

from conftest import (
    THRESHOLDS, _built, _geometries, _with_edge_draws, binary_word_sets, excluded,
    skewed_distribution,
)


def oracle_encode_block(dct: MarlinDictionary, message: bytes, dict_index: int = 0):
    n = len(message)
    if n == 0:
        return CompressedBlock(dict_index=RAW_INDEX, n=0, raw=b"")
    msg = np.frombuffer(message, dtype=np.uint8)
    rank = dct.alphabet.rank_lut[msg]
    esc_pos = np.nonzero(rank < 0)[0]
    if len(esc_pos) > 255:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    escapes = [(int(i), int(message[i])) for i in esc_pos.tolist()]
    if dct.empty_quotient:
        stream = b""
    else:
        stream = pack_units(dct.matrix.walk(np.where(rank < 0, 0, rank)), dct.k)
    block = CompressedBlock(
        dict_index=dict_index, n=n, quotient_stream=stream, escapes=escapes,
        reminders=pack_reminders(message, dct.shift),
    )
    if block.serialized_size() >= 1 + n:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    return block


def empty_quotient_dictionary() -> MarlinDictionary:
    """One represented quotient (byte 0 at S = 4) and 15 escaped ones."""
    dct = MarlinDictionary.build(point_mass(0), k=8, o=4, shift=4, threshold=0.5)
    assert dct.empty_quotient and len(excluded(dct.alphabet)) == 240
    return dct


def assert_tables_match_rank_lut(alphabet) -> None:
    lut = alphabet.rank_lut
    assert alphabet.rank_table == bytes(np.maximum(lut, 0).tolist())
    assert alphabet.represented == bytes(np.flatnonzero(lut >= 0).tolist())
    for table in ("rank_table", "represented"):
        assert getattr(alphabet, table) is getattr(alphabet, table)


def test_translate_tables_match_rank_lut(default_set):
    alphabets = [dct.alphabet for dct in default_set.dictionaries]
    assert {a.shift for a in alphabets} > {0}
    dist = skewed_distribution()
    for shift in (0, 8):
        alphabets += [split_alphabet(dist, shift, t) for t in (0.0, 2**-10)]
    alphabets.append(empty_quotient_dictionary().alphabet)
    assert min(map(len, alphabets)) == 1 and max(map(len, alphabets)) == 256
    assert any(excluded(a) for a in alphabets) and any(not excluded(a) for a in alphabets)
    for alphabet in alphabets:
        assert_tables_match_rank_lut(alphabet)


def assert_same_block(dct: MarlinDictionary, message: bytes | bytearray) -> None:
    block = encode_block(dct, message, dict_index=3)
    assert block == oracle_encode_block(dct, message, dict_index=3)
    assert decode_block(DictionarySet([dct] * 4), block) == message


def test_front_end_matches_oracle_on_fixed_dictionaries(worked_dictionary):
    _, wide = binary_word_sets(2)
    dicts = [worked_dictionary, wide, empty_quotient_dictionary()]
    rng = np.random.default_rng(5)
    for dct in dicts:
        for n in (0, 1, 2, 255, 256, 257, 4096):
            assert_same_block(dct, rng.integers(0, 256, n, dtype=np.uint8).tobytes())
            sample = skewed_distribution(0.99).sample(n, seed=n)
            assert_same_block(dct, sample)
            assert_same_block(dct, bytearray(sample))


def _messages(dct, dist, seed):
    """Skewed samples and uniform noise at lengths 0, 1, 2^K - 1 and 2^K + 1,
    a bytearray, and 4 KiB blocks with exactly 255 and 256 escapes."""
    rng = np.random.default_rng(seed)
    for n in (0, 1, (1 << dct.k) - 1, (1 << dct.k) + 1):
        yield dist.sample(n, seed=seed + n)
        yield rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    yield bytearray(dist.sample(300, seed=seed))
    escaped = np.array(sorted(excluded(dct.alphabet)), dtype=np.uint8)
    if len(escaped):
        lut = dct.alphabet.rank_lut
        base = np.frombuffer(dist.sample(4096, seed=seed), dtype=np.uint8)
        base = np.where(lut[base] < 0, np.flatnonzero(lut >= 0)[0], base).astype(np.uint8)
        for count in (255, 256):
            block = base.copy()
            block[rng.choice(4096, count, replace=False)] = rng.choice(escaped, count)
            yield block.tobytes()


# Random built dictionaries, empty-quotient ones included: 300 examples take
# 3-6 s (pytest --durations on a shared 2-vCPU host).
@hypothesis.seed(2018)
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@_with_edge_draws(seed=0)
@given(
    ko=_geometries(),
    family=st.sampled_from(FAMILIES),
    fraction=st.floats(0.02, 0.98),
    shift=st.integers(0, 7),
    threshold=st.sampled_from(THRESHOLDS),
    seed=st.integers(0, 2**30),
)
def test_front_end_matches_oracle_on_random_dictionaries(
    ko, family, fraction, shift, threshold, seed
):
    try:
        dct = _built(ko, family, fraction, shift, threshold)
    except (BuildError, EntropyTargetError):
        dct = None
    assume(dct is not None)
    assert_tables_match_rank_lut(dct.alphabet)
    dist = make_distribution(SyntheticFamily(family, fraction))
    for message in _messages(dct, dist, seed):
        assert_same_block(dct, message)

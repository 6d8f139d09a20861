"""Table-driven block decoder.

Each step peeks N = K + O bits (the O-bit window carried from the previous
codeword plus K fresh bits) and keeps only the low O bits as the next
window.  A block's symbols then come out of the flat word table in one
gather.  Reminders and escape pairs are merged afterwards.
"""

from __future__ import annotations

import numpy as np

from .bitpack import unpack_low_bits, unpack_units
from .dictionary import RAW_INDEX, DictionarySet, MarlinDictionary
from .encoder import CompressedBlock
from .errors import CorruptBlockError


class DecoderTable:
    """Flat array of 2^N fixed-width rows: word symbols plus a length.

    Two gather tables are compiled with it: ``ends[cw] = cw * width +
    len(cw)``, the flat offset just past codeword ``cw``'s word (int32
    whenever the table's size fits it), and ``window[u] = (u & omask) << K``,
    the O-bit window that the K-bit unit ``u`` carries into the next
    codeword.
    """

    def __init__(self, dct: MarlinDictionary):
        self.dct = dct
        self.max_word_len = width = dct.max_word_len
        values = np.asarray(dct.alphabet.values, dtype=np.uint8)
        # chapters that share a word set share their words at every offset, so
        # one (2^K, width) block per set, gathered in chapter order, is the table
        sets = dct.word_sets
        lengths = np.stack([lw.lengths for lw in sets]).astype(np.int64)
        ranks = np.concatenate([lw.ranks for lw in sets])
        words = np.zeros((len(sets), dct.words_per_chapter, width), dtype=np.uint8)
        words[np.arange(width) < lengths[..., None]] = values[ranks]
        chapter_sets = list(dct.chapter_sets)
        self.words = words[chapter_sets].reshape(dct.n_codewords, width)
        self.lengths = lengths[chapter_sets].reshape(dct.n_codewords)
        offset = np.int32 if dct.n_codewords * width < 1 << 31 else np.intp
        self.ends = (np.arange(dct.n_codewords) * width + self.lengths).astype(offset)
        self.window = (np.arange(1 << dct.k) & (dct.n_chapters - 1)) << dct.k


def decode_quotients(table: DecoderTable, stream: bytes, n: int) -> np.ndarray:
    """Decode the ``n`` quotient values of one block's quotient section.

    The window starts at zero.  A valid section ends exactly on a word
    boundary at symbol ``n`` and is exactly ``ceil(used * K / 8)`` bytes long
    for the ``used`` codewords it holds; anything else is corrupt.
    """
    if n == 0:
        if stream:
            raise CorruptBlockError("quotient section present for an empty block")
        return np.zeros(0, dtype=np.uint8)
    k = table.dct.k
    avail = (len(stream) * 8) // k
    if avail == 0:
        raise CorruptBlockError("quotient stream exhausted before any symbol")
    codewords = unpack_units(stream, k, avail)
    codewords[1:] |= table.window[codewords[:-1]]
    lens = table.lengths[codewords]
    total = np.cumsum(lens)
    if total[-1] < n:
        raise CorruptBlockError(
            f"quotient stream exhausted after {int(total[-1])} of {n} symbols"
        )
    used = int(np.searchsorted(total, n, side="left")) + 1
    if int(total[used - 1]) != n:
        raise CorruptBlockError("final word overruns the block boundary")
    if len(stream) != (used * k + 7) // 8:
        raise CorruptBlockError(
            f"quotient section is {len(stream)} bytes, its {used} codewords "
            f"need {(used * k + 7) // 8}"
        )
    # symbol j of word i sits at ends[cw_i] - len_i + j in the flat table and
    # at total_i - len_i + j in the output
    starts = table.ends[codewords[:used]] - total[:used]
    return table.words.reshape(-1)[np.repeat(starts, lens[:used]) + np.arange(n)]


def decode_block(dset: DictionarySet | MarlinDictionary, block: CompressedBlock) -> bytes:
    """Reconstruct the original ``block.n`` bytes of one block (a raw block
    must hold exactly that many)."""
    n = block.n
    if block.is_raw:
        if len(block.raw) != n:
            raise CorruptBlockError(
                f"raw block holds {len(block.raw)} bytes, expected {n}"
            )
        return bytes(block.raw)
    dct = _resolve(dset, block.dict_index)
    if n == 0:
        return b""
    shift = dct.shift
    if dct.empty_quotient:
        quotients = np.full(n, dct.alphabet.values[0], dtype=np.uint8)
    else:
        quotients = decode_quotients(dct.table, block.quotient_stream, n)
    out = (quotients << shift) | unpack_low_bits(block.reminders, shift, n)
    if block.escapes:
        locs = np.array([loc for loc, _ in block.escapes])
        if (locs >= n).any() or (locs < 0).any():
            raise CorruptBlockError("escape location outside the block")
        out[locs] = [sym for _, sym in block.escapes]
    return out.tobytes()


def _resolve(dset, index: int) -> MarlinDictionary:
    if isinstance(dset, MarlinDictionary):
        return dset
    if index == RAW_INDEX or index >= len(dset):
        raise CorruptBlockError(f"unknown dictionary index {index}")
    return dset[index]

"""Table-driven block decoder.

Each step peeks N = K + O bits (the O-bit window carried from the previous
codeword plus K fresh bits) and keeps only the low O bits as the next
window.  A block's symbols then come out of the word sets' concatenated
symbols in one gather.  Reminders and escape pairs are then merged into
that array in place; at S = 0 there are no reminders to read.
"""

from __future__ import annotations

import numpy as np

from .bitpack import unpack_low_bits, unpack_units
from .dictionary import DictionarySet, MarlinDictionary
from .encoder import CompressedBlock
from .errors import CorruptBlockError


class DecoderTable:
    """The word sets' symbols, concatenated once per set, and per-codeword
    gather tables.

    Codeword ``cw``'s word is ``symbols[ends[cw] - lengths[cw]:ends[cw]]``:
    ``ends`` is the cumulative sum of the sets' word lengths, gathered in
    chapter order (int32 whenever ``symbols`` fits it), so chapters that
    share a word set share its symbols.  ``window[u] = (u & omask) << K`` is
    the O-bit window that the K-bit unit ``u`` carries into the next
    codeword.
    """

    def __init__(self, dct: MarlinDictionary):
        self.k = k = dct.k
        values = np.asarray(dct.alphabet.values, dtype=np.uint8)
        sets, chapter_sets = dct.word_sets, list(dct.chapter_sets)
        self.symbols = values[np.concatenate([lw.ranks for lw in sets])]
        lengths = np.stack([lw.lengths for lw in sets])
        offset = np.int32 if len(self.symbols) < 1 << 31 else np.intp
        ends = np.cumsum(lengths, dtype=offset).reshape(lengths.shape)
        self.lengths = lengths[chapter_sets].reshape(dct.n_codewords)
        self.ends = ends[chapter_sets].reshape(dct.n_codewords)
        self.window = (np.arange(1 << k) & (dct.n_chapters - 1)) << k


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
    k = table.k
    avail = (len(stream) * 8) // k
    if avail == 0:
        raise CorruptBlockError("quotient stream exhausted before any symbol")
    codewords = unpack_units(stream, k, avail).astype(np.intp)
    codewords[1:] |= table.window.take(codewords[:-1])
    lens = table.lengths.take(codewords)
    total = lens.cumsum()
    used = int(total.searchsorted(n)) + 1
    if used > avail:
        raise CorruptBlockError(
            f"quotient stream exhausted after {int(total[-1])} of {n} symbols"
        )
    if total[used - 1] != n:
        raise CorruptBlockError("final word overruns the block boundary")
    if len(stream) != (used * k + 7) // 8:
        raise CorruptBlockError(
            f"quotient section is {len(stream)} bytes, its {used} codewords "
            f"need {(used * k + 7) // 8}"
        )
    # symbol j of word i sits at ends[cw_i] - len_i + j in ``symbols`` and
    # at total_i - len_i + j in the output
    starts = table.ends.take(codewords[:used]) - total[:used]
    index = starts.repeat(lens[:used])
    index += np.arange(n)
    return table.symbols.take(index)


def decode_block(dset: DictionarySet, block: CompressedBlock) -> bytes:
    """Reconstruct the original ``block.n`` bytes of one block with
    ``dset[block.dict_index]``; a raw block must hold exactly that many bytes
    and needs no set."""
    n = block.n
    if block.is_raw:
        if len(block.raw) != n:
            raise CorruptBlockError(
                f"raw block holds {len(block.raw)} bytes, expected {n}"
            )
        return bytes(block.raw)
    if not 0 <= block.dict_index < len(dset):
        raise CorruptBlockError(f"unknown dictionary index {block.dict_index}")
    dct = dset[block.dict_index]
    shift = dct.shift
    if dct.empty_quotient:
        out = np.full(n, dct.alphabet.values[0], dtype=np.uint8)
    else:
        out = decode_quotients(dct.table, block.quotient_stream, n)
    if shift:
        out <<= shift
        out |= unpack_low_bits(block.reminders, shift, n)
    if block.escapes:
        locs, syms = zip(*block.escapes)
        if min(locs) < 0 or max(locs) >= n:
            raise CorruptBlockError("escape location outside the block")
        out.put(locs, syms)
    return out.tobytes()

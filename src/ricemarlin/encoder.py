"""Three-stage block encoder.

Stage 1 walks the prefix tree, as a graph of (word set, offset) nodes, over
the quotient stream (escaped quotients already substituted by the
placeholder), several ranks per step, and emits K-bit codeword units.
Stage 2 records each escaped symbol as a location/value pair.  Stage 3 packs
the S low bits of every original byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .bitpack import loc_bytes, pack_low_bits, pack_units
from .dictionary import RAW_INDEX, MarlinDictionary
from .errors import CorruptBlockError

# entries of an m-step table; m is the largest step count that fits, so the
# tables of the dictionaries a run touches stay a few MiB in all
STEP_TABLE_CAP = 1 << 18


@dataclass
class CompressedBlock:
    """Parsed form of one encoded block."""

    dict_index: int
    n: int  # original symbol count (carried out of band on the wire)
    quotient_stream: bytes = b""
    escapes: list[tuple[int, int]] = field(default_factory=list)
    reminders: bytes = b""
    raw: bytes | None = None

    @property
    def is_raw(self) -> bool:
        return self.raw is not None

    @property
    def unrep_count(self) -> int:
        return len(self.escapes)

    def serialized_size(self) -> int:
        if self.is_raw:
            return 1 + len(self.raw)
        return (
            2
            + len(self.quotient_stream)
            + len(self.escapes) * (loc_bytes(self.n) + 1)
            + len(self.reminders)
        )


class EncoderMatrix:
    """Prefix tree as a node graph, walked ``m`` ranks per Python step.

    Chapters that share a word set also share its codeword layout, so a
    walk state is a node ``ki * 2**K + offset``: word set ``ki`` (an index
    into ``dct.word_sets``) at a K-bit codeword offset.
    ``nxt[node, r]`` is the node after rank ``r``: the child word when ``r``
    extends the node's word, else (the word is emitted) the single-symbol
    word ``(r,)`` of chapter ``offset & omask``.  ``starts_word[node]`` is
    true for single-symbol words, so a transition emits exactly when it
    lands on one.  Inadmissible transitions lead to the absorbing trap node
    ``nn``.  ``table[key * (nn + 1) + node]`` is the node after the
    ``m`` ranks whose mixed-radix value is ``key`` (``r1 * nq**(m-1) + ...``);
    it is stored key-major so a walk step is one add and one subscript.
    """

    def __init__(self, dct: MarlinDictionary):
        self.dct = dct
        k, nq = dct.k, len(dct.alphabet)
        sets = dct.word_sets
        self.nn = nn = len(sets) << k
        # node ki * 2**K + i is word i of set ki; its parent and last rank
        # give the one edge into it
        words = np.arange(nn)
        lengths = np.concatenate([lw.lengths for lw in sets])
        last = np.concatenate([lw.ranks for lw in sets])[np.cumsum(lengths) - 1]
        parents = np.concatenate([lw.parents for lw in sets])
        kvals = np.concatenate([lw.kvals for lw in sets])
        linked = parents >= 0
        child = np.full((nn, nq), nn, dtype=np.int32)
        child[parents[linked] + (words[linked] >> k << k), last[linked]] = words[linked]
        single = lengths == 1
        self.single = np.full((len(sets), nq), nn, dtype=np.int32)
        self.single[words[single] >> k, last[single]] = words[single]
        offsets = words & (dct.words_per_chapter - 1)
        emit = np.arange(nq) >= kvals[:, None]
        chapter_sets = np.array(dct.chapter_sets, dtype=np.intp)
        nxt = np.where(emit, self.single[chapter_sets[offsets & (dct.n_chapters - 1)]], child)
        self.nxt = np.vstack([nxt, np.full((1, nq), nn, dtype=np.int32)])
        # emitting moves to a single-symbol word and extending never does, so
        # the walk reads emissions off the states with a 1-D gather
        self.starts_word = np.zeros(nn + 1, dtype=bool)
        self.starts_word[self.single[self.single < nn]] = True

        nodes = nn + 1
        m = 1
        while nq > 1 and nodes * nq ** (m + 1) <= STEP_TABLE_CAP:
            m += 1
        self.m = m
        self._key_weights = nodes * nq ** np.arange(m - 1, -1, -1, dtype=np.int64)
        tab = self.nxt
        for _ in range(m - 1):
            tab = self.nxt[tab].reshape(nodes, -1)
        self._typecode = "H" if nodes <= 1 << 16 else "I"
        self.table = array(self._typecode, tab.T.astype(self._typecode).tobytes())

    def walk(self, ranks, chapter: int = 0) -> np.ndarray:
        """Longest-match parse; returns emitted codewords including the flush.

        Python steps ``m`` ranks at a time through ``table``; numpy fills in
        the states between those anchors.  Raises ``CorruptBlockError`` when
        the ranks are inadmissible from ``chapter`` (a state is the trap).
        """
        ranks = np.asarray(ranks, dtype=np.intp)
        n = len(ranks)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        m, nxt = self.m, self.nxt
        node = int(self.single[self.dct.chapter_sets[chapter], ranks[0]])
        rest = ranks[1:]
        body = (n - 1) // m * m
        keys = rest[:body].reshape(-1, m) @ self._key_weights
        states = np.empty(n, dtype=np.intp)
        states[0] = node
        table = self.table
        states[m : body + 1 : m] = [node := table[node + key] for key in keys.tolist()]
        for t in range(1, m):
            states[t:body:m] = nxt[states[t - 1 : body : m], rest[t - 1 : body : m]]
        for p in range(body + 1, n):
            states[p] = nxt[states[p - 1], rest[p - 1]]
        if states[-1] == self.nn:  # the trap absorbs, so any trap reaches the end
            raise CorruptBlockError("encoder walk reached a trap transition")
        # a word ends where the next state starts a word, and at the flush
        ends = self.starts_word[states]
        ends[:-1] = ends[1:]
        ends[-1] = True
        units = states[ends] & (self.dct.words_per_chapter - 1)
        codewords = np.empty_like(units)
        codewords[0] = chapter
        codewords[1:] = units[:-1] & (self.dct.n_chapters - 1)
        codewords <<= self.dct.k
        codewords |= units
        return codewords


def pack_reminders(message: bytes, s: int) -> bytes:
    """Concatenated S low bits of each byte, most significant reminder bit first."""
    if not 0 <= s <= 8:
        raise ValueError("shift must be in [0, 8]")
    return pack_low_bits(np.frombuffer(message, dtype=np.uint8), s)


def encode_block(dct: MarlinDictionary, message: bytes, dict_index: int = 0) -> CompressedBlock:
    """Encode one block with ``dct.matrix``; falls back to a raw block when
    escapes overflow the one-byte counter or compression would not save a byte."""
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
        codewords = dct.matrix.walk(np.where(rank < 0, 0, rank))
        stream = pack_units(codewords & (dct.words_per_chapter - 1), dct.k)
    reminders = pack_reminders(message, dct.shift)
    block = CompressedBlock(
        dict_index=dict_index,
        n=n,
        quotient_stream=stream,
        escapes=escapes,
        reminders=reminders,
    )
    if block.serialized_size() >= 1 + n:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    return block

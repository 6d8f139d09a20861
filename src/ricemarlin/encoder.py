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
from functools import partial

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
    """Prefix tree as a node graph, walked ``m`` ranks per Python step over
    its leaf-merged class graph.

    Chapters that share a word set also share its codeword layout, so a
    walk state is a node ``ki * 2**K + offset``: word set ``ki`` (an index
    into ``dct.word_sets``) at a K-bit codeword offset.
    ``nxt[node, r]`` is the node after rank ``r``: the child word when ``r``
    extends the node's word, else (the word is emitted) the single-symbol
    word ``(r,)`` of chapter ``offset & omask``.  ``starts_word[node]`` is
    true for single-symbol words, so a transition emits exactly when it
    lands on one.  Inadmissible transitions lead to the absorbing trap node
    ``nn``.

    A leaf word (no children) emits on every rank, so its ``nxt`` row is the
    ``single`` row of the word set its next chapter uses.  Leaves that feed
    the same word set and agree on ``starts_word`` merge into one class;
    every other node, the trap included, is a class of its own.
    ``node_class[node]`` is a node's class and ``rep[c]`` one node of class
    ``c``; ``class_nxt`` and ``class_starts`` are ``nxt`` and
    ``starts_word`` over classes, exact because a class's nodes share their
    rows.  ``rows[c][key]`` is the class after the ``m`` ranks from class
    ``c`` whose mixed-radix value is ``key`` (``r1 * nq**(m-1) + ...``), so a
    walk step is two subscripts.  A row is a ``bytes`` object for at most 256
    classes, else an ``array`` of 16- or 32-bit entries.  When
    ``nq**m <= 256`` (``byte_keys``) the keys are one ``bytes`` object too,
    whose items are Python's cached small ints.
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
        feeds = chapter_sets[offsets & (dct.n_chapters - 1)]
        nxt = np.where(emit, self.single[feeds], child)
        self.nxt = np.vstack([nxt, np.full((1, nq), nn, dtype=np.int32)])
        # emitting moves to a single-symbol word and extending never does, so
        # the walk reads emissions off the states with a 1-D gather
        self.starts_word = np.zeros(nn + 1, dtype=bool)
        self.starts_word[self.single[self.single < nn]] = True

        # a leaf's class key is (fed set, starts_word); the others, the trap
        # last, get keys past every leaf key
        keys = np.arange(nn + 1) + 2 * len(sets)
        leaf = np.flatnonzero(kvals == 0)
        keys[leaf] = 2 * feeds[leaf] + self.starts_word[leaf]
        _, self.rep, self.node_class = np.unique(keys, return_index=True, return_inverse=True)
        self.n_classes = classes = len(self.rep)
        # the walk's anchors come back from the rows as a list of small ints,
        # which bytearray() and array("I") convert fastest
        if classes <= 1 << 8:
            self._dtype, self._pack, store = np.uint8, bytearray, bytes
        else:
            self._dtype = np.uint16 if classes <= 1 << 16 else np.uint32
            self._pack, store = partial(array, "I"), partial(array, np.dtype(self._dtype).char)
        self.class_nxt = self.node_class[self.nxt[self.rep]].astype(self._dtype)
        self.class_starts = self.starts_word[self.rep]
        # flat offsets into class_nxt and, for the walk's node recovery, into
        # nxt at each class's representative
        self._class_base = np.arange(classes) * nq
        self._rep_base = self.rep * nq

        m = 1
        while nq > 1 and classes * nq ** (m + 1) <= STEP_TABLE_CAP:
            m += 1
        self.m = m
        # keys below 256 travel as one bytes object, whose items are cached ints
        self.byte_keys = nq**m <= 1 << 8
        self._key_weights = nq ** np.arange(m - 1, -1, -1, dtype=np.intp)
        tab = self.class_nxt
        for _ in range(m - 1):
            tab = self.class_nxt[tab].reshape(classes, -1)
        self.rows = [store(row.tobytes()) for row in tab]

    def walk(self, ranks, chapter: int = 0) -> np.ndarray:
        """Longest-match parse; returns emitted codewords including the flush.

        Python steps ``m`` ranks at a time through ``rows``; numpy fills in
        the classes between those anchors and then recovers the node of each
        emitted word.  Raises ``CorruptBlockError`` when the ranks are
        inadmissible from ``chapter`` (a state is the trap).
        """
        ranks = np.asarray(ranks, dtype=np.intp)
        n = len(ranks)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        m, class_nxt, base = self.m, self.class_nxt, self._class_base
        first = int(self.single[self.dct.chapter_sets[chapter], ranks[0]])
        state = int(self.node_class[first])
        rest = ranks[1:]
        body = (n - 1) // m * m
        keys = rest[:body].reshape(-1, m) @ self._key_weights
        keys = keys.astype(np.uint8).tobytes() if self.byte_keys else keys.tolist()
        states = np.empty(n, dtype=self._dtype)
        states[0] = state
        rows = self.rows
        anchors = [state := rows[state][key] for key in keys]
        states[m : body + 1 : m] = self._pack(anchors)
        # 1-D takes at flat offsets class * nq + rank beat 2-D subscripts
        for t in range(1, m):
            at = base.take(states[t - 1 : body : m]) + rest[t - 1 : body : m]
            states[t:body:m] = class_nxt.take(at)
        for p in range(body + 1, n):
            states[p] = class_nxt[states[p - 1], rest[p - 1]]
        if states[-1] == self.n_classes - 1:  # the trap absorbs, so any trap reaches the end
            raise CorruptBlockError("encoder walk reached a trap transition")
        # a word ends where the next state starts a word, and at the flush
        ends = self.class_starts[states]
        ends[:-1] = ends[1:]
        ends[-1] = True
        # the node at p >= 1 is one full-graph step from any node of the
        # class at p - 1, since a class's nodes share their rows
        lead, before = int(ends[0]), np.flatnonzero(ends[1:])
        units = np.empty(lead + len(before), dtype=np.intp)
        units[0] = first
        units[lead:] = self.nxt.take(self._rep_base.take(states.take(before)) + rest.take(before))
        units &= self.dct.words_per_chapter - 1
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

"""Three-stage block encoder.

Stage 1 walks the prefix tree, as a graph of (word set, offset) nodes, over
the quotient stream (escaped quotients already substituted by the
placeholder), several ranks per step, and emits K-bit codeword units.
Stage 2 records each escaped symbol as a location/value pair.  Stage 3 packs
the S low bits of every original byte.  The quotient stream and the escaped
symbols both come from ``bytes.translate`` with the alphabet's tables.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bitpack import loc_bytes, pack_low_bits, pack_units
from .dictionary import RAW_INDEX, MarlinDictionary
from .errors import CorruptBlockError
from .source import _validate_shift

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
    """Prefix tree compiled to per-class step rows and cell tables, walked
    ``m`` ranks per Python step.

    The node graph they come from exists only while they are compiled.  A
    node is ``ki * 2**K + offset``: word set ``ki`` (an index into
    ``dct.word_sets``, whose chapters share its codeword layout) at a K-bit
    offset.  Rank ``r`` leads to the child word when it extends the node's
    word, else (the word is emitted) to the single-symbol word ``(r,)`` of
    chapter ``offset & omask``; inadmissible ranks lead to an absorbing trap.
    Leaves (words without children) emit on every rank, so those that feed
    the same word set and agree on starting a word merge into one class;
    every other node is a class of its own, the trap last.

    ``rows[c][key]`` is the class after the ``m`` ranks from class ``c``
    whose mixed-radix value is ``key`` (``r1 * nq**(m-1) + ...``), so a walk
    step is two subscripts.  A row is a ``bytes`` object for at most 256
    classes, else an ``array`` of 16- or 32-bit entries.  When
    ``nq**m <= 256`` (``byte_keys``) the keys are one ``bytes`` object too,
    whose items are Python's cached small ints.  The walk builds the keys
    by Horner's rule in place, in ``key_dtype``, the narrowest unsigned type
    that holds ``nq**m - 1``.

    A cell ``r * stride + c`` is the transition on rank ``r`` out of class
    ``c``.  Start class ``n_classes`` stands before a walk, which starts in
    chapter 0 as the decoder's window does: its rank ``r`` reaches the
    single-symbol word ``(r,)`` there.  Flush rank ``nq`` ends the last
    word.  Per cell, ``cell_next`` is the class reached, ``cell_ends``
    whether the word before the transition ends (the node reached starts a
    word) and ``cell_units`` the K-bit unit of the node reached, which every
    node of a class gives.
    """

    def __init__(self, dct: MarlinDictionary):
        k, nq, sets = dct.k, len(dct.alphabet), dct.word_sets
        nn = len(sets) << k
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
        is_single = lengths == 1
        single = np.full((len(sets), nq), nn, dtype=np.int32)
        single[words[is_single] >> k, last[is_single]] = words[is_single]
        offsets = words & (dct.words_per_chapter - 1)
        emit = np.arange(nq) >= kvals[:, None]
        chapter_sets = np.array(dct.chapter_sets, dtype=np.intp)
        feeds = chapter_sets[offsets & (dct.n_chapters - 1)]
        nxt = np.vstack([np.where(emit, single[feeds], child), np.full((1, nq), nn, np.int32)])
        # emitting moves to a single-symbol word and extending never does, so
        # a transition ends a word exactly when the node it reaches starts one
        starts_word = np.zeros(nn + 1, dtype=bool)
        starts_word[single[single < nn]] = True

        # a leaf's class key is (fed set, starts_word); the others, the trap
        # last, get keys past every leaf key
        keys = np.arange(nn + 1) + 2 * len(sets)
        leaf = np.flatnonzero(kvals == 0)
        keys[leaf] = 2 * feeds[leaf] + starts_word[leaf]
        _, rep, node_class = np.unique(keys, return_index=True, return_inverse=True)
        self.n_classes = classes = len(rep)
        # the walk's anchors come back from the rows as a list of small ints,
        # which bytearray() and array("I") convert fastest, and np.asarray
        # views either
        if classes <= 1 << 8:
            dtype, self._pack, store = np.uint8, bytearray, bytes
        else:
            dtype = np.uint16 if classes <= 1 << 16 else np.uint32
            self._pack, store = partial(array, "I"), partial(array, np.dtype(dtype).char)
        # the cell tables, rank-major: the start class follows the real
        # ones, and the flush rank follows the real ranks
        self.stride = classes + 1
        reached = np.vstack([nxt[rep], single[chapter_sets[:1]]]).T
        self.cell_next = node_class[reached].astype(dtype).ravel()
        self.cell_ends = np.append(starts_word[reached], np.ones(self.stride, bool))
        units = reached & (dct.words_per_chapter - 1)
        self.cell_units = units.astype(np.min_scalar_type(dct.words_per_chapter - 1)).ravel()

        m = 1
        while nq > 1 and classes * nq ** (m + 1) <= STEP_TABLE_CAP:
            m += 1
        self.m = m
        # keys below 256 travel as one bytes object, whose items are cached
        # ints; Horner's rule builds them in the narrowest type that holds
        # nq**m - 1
        self.byte_keys = nq**m <= 1 << 8
        self.key_dtype = np.min_scalar_type(nq**m - 1)
        # the class graph, row c the class after each rank from class c
        class_nxt = self.cell_next.reshape(nq, self.stride)[:, :classes].T.copy()
        tab = class_nxt
        for _ in range(m - 1):
            tab = class_nxt[tab].reshape(classes, -1)
        self.rows = [store(row.tobytes()) for row in tab]
        # the class after each rank from the start class, for the walk's
        # first anchor
        self._start = self.cell_next[classes :: self.stride].tolist()

    def walk(self, ranks) -> np.ndarray:
        """Longest-match parse; returns the K-bit unit of every emitted word,
        the flush included.

        Cell ``p`` is the transition into position ``p``, from the start
        class at ``p = 0``, and cell ``n`` is the flush.  Python steps ``m``
        ranks at a time through ``rows``, from the start class's successor
        at ``p = 1``, with keys built by Horner's rule over strided views of
        the ranks.  The classes it reaches are the anchors at ``p = 1, m + 1,
        ...``; numpy fills in every other cell, the tail after the last full
        step included, one column per phase of the step, and reads the word
        ends and the units off the cell tables.  The encoder's uint8 ranks
        are walked without widening.  Raises ``ValueError`` unless the ranks
        are a 1-D integer sequence in ``[0, nq)``, and ``CorruptBlockError``
        when they are inadmissible (the walk reaches the trap).
        """
        ranks = np.asarray(ranks)
        if ranks.ndim != 1:
            raise ValueError(f"ranks must be one-dimensional, not of shape {ranks.shape}")
        n = len(ranks)
        if n == 0:
            return self.cell_units[:0]
        kind = ranks.dtype.kind
        if kind not in "ui":
            raise ValueError(f"ranks must be integers, not {ranks.dtype}")
        nq = len(self._start)
        low = 0 if kind == "u" else int(ranks.min())
        bad = low if low < 0 else int(ranks.max())
        if not 0 <= bad < nq:
            raise ValueError(f"rank {bad} is not in [0, {nq})")
        ranks = ranks.astype(np.uint8, copy=False)  # every rank fits: nq <= 256
        m, cell_next, flush = self.m, self.cell_next, len(self.cell_next)
        cell = np.empty(n + 1, dtype=np.intp)
        np.multiply(ranks, self.stride, out=cell[:n], dtype=np.intp)
        cell[n] = flush  # the flush rank's block
        cell[0] += self.n_classes
        body = (n - 1) // m * m
        # in place, so the keys keep their type under any scalar promotion rule
        keys = ranks[1 : body + 1 : m].astype(self.key_dtype)
        for j in range(2, m + 1):
            keys *= nq
            keys += ranks[j : body + 1 : m]
        keys = keys.tobytes() if self.byte_keys else keys.tolist()
        rows, state = self.rows, self._start[ranks[0]]
        cell[1] += state
        # the other anchors, the classes at positions m + 1, 2m + 1, ..., body + 1
        anchors = self._pack([state := rows[state][key] for key in keys])
        cell[m + 1 : body + 2 : m] += np.asarray(anchors)
        # each phase's classes come from the cells of the phase before; the
        # columns run to the flush cell, so they fill the tail too
        for t in range(1, m):
            cell[t + 1 : n + 1 : m] += cell_next.take(cell[t:n:m])
        if cell[n] == flush + self.n_classes - 1:  # the trap absorbs, so any trap reaches the end
            raise CorruptBlockError("encoder walk reached a trap transition")
        # the word at p ends where cell p + 1 reaches a word start, and at
        # the flush; its unit is that of the node cell p reaches
        ends = self.cell_ends.take(cell[1:])
        return self.cell_units.take(cell.take(ends.nonzero()[0]))


def pack_reminders(message: bytes, s: int) -> bytes:
    """Concatenated S low bits of each byte, most significant reminder bit first."""
    _validate_shift(s)
    return pack_low_bits(np.frombuffer(message, dtype=np.uint8), s)


def encode_block(dct: MarlinDictionary, message: bytes, dict_index: int = 0) -> CompressedBlock:
    """Encode one block (``bytes`` or ``bytearray``) with ``dct.matrix``; falls
    back to a raw block when escapes overflow the one-byte counter or
    compression would not save a byte.  ``dict_index`` labels a coded block
    and must be below ``RAW_INDEX``, which marks a raw one."""
    if not 0 <= dict_index < RAW_INDEX:
        raise ValueError(f"dictionary index {dict_index} is not in [0, {RAW_INDEX})")
    n = len(message)
    if n == 0:
        return CompressedBlock(dict_index=RAW_INDEX, n=0, raw=b"")
    alphabet = dct.alphabet
    escaped = message.translate(None, alphabet.represented)
    if len(escaped) > 255:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    # every occurrence of an escaped byte is an escape, so each one's
    # location is the next occurrence of its byte after the one before
    escapes, at = [], -1
    for symbol in escaped:
        at = message.find(symbol, at + 1)
        escapes.append((at, symbol))
    if dct.empty_quotient:
        stream = b""
    else:
        ranks = np.frombuffer(message.translate(alphabet.rank_table), np.uint8)
        stream = pack_units(dct.matrix.walk(ranks), dct.k)
    reminders = pack_reminders(message, dct.shift)
    block = CompressedBlock(dict_index, n, stream, escapes, reminders)
    if block.serialized_size() >= 1 + n:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    return block

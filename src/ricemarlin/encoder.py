"""Three-stage block encoder.

Stage 1 walks a matrix-shaped prefix tree over the quotient stream
(escaped quotients already substituted by the placeholder) and emits K-bit
codeword units.  Stage 2 records each escaped symbol as a location/value
pair.  Stage 3 packs the S low bits of every original byte.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .bitpack import loc_bytes, pack_low_bits, pack_units
from .dictionary import RAW_INDEX, MarlinDictionary
from .errors import CorruptBlockError

TRAP = -2  # cell for transitions the safety invariant makes unreachable


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
    """Prefix tree as a state matrix: column = current codeword, row = next rank.

    Cells pack ``(next_state_base << 1) | emit`` where a state base is the
    codeword pre-shifted by the row-index width, so the walk needs one index
    and two shifts per symbol.
    """

    def __init__(self, dct: MarlinDictionary):
        self.dct = dct
        nq = max(1, len(dct.alphabet))
        self.row_bits = max(1, (nq - 1).bit_length())
        n_states = dct.n_codewords
        sr = self.row_bits
        cell_bits = (dct.k + dct.o) + sr + 1
        self._dtype = np.int32 if cell_bits < 31 else np.int64
        mat = np.full((n_states, 1 << sr), TRAP, dtype=self._dtype)

        omask = dct.n_chapters - 1
        kwords = dct.words_per_chapter
        # emit targets: next chapter v, row r -> single-symbol word r there
        emit_target = np.full((dct.n_chapters, 1 << sr), TRAP, dtype=self._dtype)
        for v in range(dct.n_chapters):
            lw = dct.level_sets[dct.levels[v]]
            layout = dct.level_layout[dct.levels[v]]
            offset_of = {lw.words[i][0]: off for off, i in enumerate(layout) if len(lw.words[i]) == 1}
            for r, off in offset_of.items():
                emit_target[v, r] = (((v * kwords + off) << sr) << 1) | 1

        for c in range(dct.n_chapters):
            base_cw = c * kwords
            lw = dct.level_sets[dct.levels[c]]
            layout = dct.level_layout[dct.levels[c]]
            offset_of_word = {lw.words[i]: off for off, i in enumerate(layout)}
            rows = np.arange(kwords) & omask
            mat[base_cw : base_cw + kwords, :] = emit_target[rows]
            for off, i in enumerate(layout):
                w = lw.words[i]
                for r in range(lw.kvals[i]):
                    child_off = offset_of_word[w + (r,)]
                    mat[base_cw + off, r] = ((base_cw + child_off) << sr) << 1
        typecode = "i" if self._dtype is np.int32 else "q"
        self.cells = array(typecode)
        self.cells.frombytes(mat.ravel().tobytes())
        if self.cells.itemsize != mat.itemsize:  # platform 'i' width mismatch
            self.cells = array("q")
            self.cells.frombytes(mat.ravel().astype(np.int64).tobytes())
        # start states per chapter: pre-shifted single-symbol word bases
        self._starts = [
            [(e >> 1) if e >= 0 else TRAP for e in row]
            for row in emit_target.tolist()
        ]
        self.start_base = self._starts[0]

    def walk(self, ranks: list[int], check: bool = False, chapter: int = 0) -> list[int]:
        """Longest-match parse; returns emitted codewords including the flush."""
        if not ranks:
            return []
        sr = self.row_bits
        cells = self.cells
        base = self._starts[chapter][ranks[0]]
        out: list[int] = []
        append = out.append
        if check:
            if base < 0:
                raise CorruptBlockError("walk started at an inadmissible quotient")
            for r in ranks[1:]:
                cell = cells[base | r]
                if cell < 0:
                    raise CorruptBlockError("encoder matrix trap cell consulted")
                if cell & 1:
                    append(base >> sr)
                base = cell >> 1
        else:
            for r in ranks[1:]:
                cell = cells[base | r]
                if cell & 1:
                    append(base >> sr)
                base = cell >> 1
        append(base >> sr)
        return out


def pack_reminders(message: bytes, s: int) -> bytes:
    """Concatenated S low bits of each byte, most significant reminder bit first."""
    if not 0 <= s <= 8:
        raise ValueError("shift must be in [0, 8]")
    return pack_low_bits(np.frombuffer(message, dtype=np.uint8), s)


def encode_block(
    dct: MarlinDictionary,
    matrix: EncoderMatrix | None,
    message: bytes,
    dict_index: int = 0,
    check: bool = False,
) -> CompressedBlock:
    """Encode one block; falls back to a raw block when escapes overflow the
    one-byte counter or compression would not save a byte."""
    n = len(message)
    if n == 0:
        return CompressedBlock(dict_index=RAW_INDEX, n=0, raw=b"")
    msg = np.frombuffer(message, dtype=np.uint8)
    rank = dct.alphabet.rank_lut()[msg]
    esc_pos = np.nonzero(rank < 0)[0]
    if len(esc_pos) > 255:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=message)
    escapes = [(int(i), int(message[i])) for i in esc_pos.tolist()]
    if dct.empty_quotient:
        stream = b""
    else:
        if matrix is None:
            matrix = EncoderMatrix(dct)
        ranks = np.where(rank < 0, 0, rank).tolist()
        codewords = matrix.walk(ranks, check=check)
        units = np.asarray(codewords, dtype=np.uint32) & (dct.words_per_chapter - 1)
        stream = pack_units(units, dct.k)
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

"""Span tracer that wraps the codec's functions where their callers look them up.

Each wrapped call records a span (name, parent span, start, end).  A layer's
self time is its spans' durations minus the time their child spans cover.
Wrappers are installed by replacing the attribute a caller reads at call time
(a module global or a class attribute) and are removed again by ``uninstall``,
so untraced runs execute the program unmodified.
"""

from __future__ import annotations

import time
from collections import Counter


def _walk_counts(args, kwargs, result):
    ranks = kwargs["ranks"] if "ranks" in kwargs else args[1]
    return {"encoder.symbols": len(ranks), "encoder.units": len(result)}


def _one(metric):
    return lambda args, kwargs, result: {metric: 1}


def trace_points(program) -> list[tuple]:
    """(owner, attribute, span name or None, counter) for every traced call.

    The owner is the namespace the caller reads the name from: format.py
    calls ``encode_block`` through its own globals, the decoder reads
    ``unpack_units`` from decoder.py, the encoder calls ``matrix.walk``.
    A span name of None counts calls without timing them.
    """
    dictionary, encoder, decoder = program.dictionary, program.encoder, program.decoder
    fmt, image, source = program.format, program.image, program.source
    return [
        (dictionary.DictionarySet, "quick_select", "dictionary.quick_select",
         _one("dictionary.quick_select_calls")),
        (encoder.EncoderMatrix, "walk", "encoder.walk", _walk_counts),
        (fmt, "encode_block", "encoder.encode_block", None),
        (encoder.EncoderMatrix, "__init__", "encoder.matrix_build",
         _one("encoder.matrix_builds")),
        (encoder, "pack_units", "bitpack.pack_units", None),
        (encoder, "pack_low_bits", "bitpack.pack_low_bits", None),
        (decoder, "unpack_units", "bitpack.unpack_units", None),
        (decoder, "unpack_low_bits", "bitpack.unpack_low_bits", None),
        (decoder, "decode_quotients", "decoder.decode_quotients", None),
        (fmt, "decode_block", "decoder.decode_block", None),
        (decoder.DecoderTable, "__init__", "decoder.table_build",
         _one("decoder.table_builds")),
        (fmt, "serialize_block", "format.serialize_block", None),
        (fmt, "parse_block", "format.parse_block", None),
        (fmt, "compress_bytes", "format.container", None),
        (fmt, "decompress_bytes", "format.container", None),
        (fmt, "load_dictset", "format.load_dictset", None),
        (fmt, "save_dictset", "format.save_dictset", None),
        (image, "residual_transform", "image.residual_transform", None),
        (image, "residual_inverse", "image.residual_inverse", None),
        (dictionary, "best_dictionary_for", "dictionary.best_dictionary_for", None),
        (dictionary, "grow_chapter", "dictionary.grow_chapter", None),
        (dictionary, "abr_estimate", "dictionary.abr_estimate", None),
        (dictionary.MarlinDictionary, "from_alphabet", None,
         _one("dictionary.candidates")),
        (source, "make_distribution", "source.make_distribution", None),
    ]


#: every call counter
COUNT_NAMES = sorted({
    "dictionary.quick_select_calls", "encoder.symbols", "encoder.units",
    "encoder.matrix_builds", "decoder.table_builds", "dictionary.candidates",
})


class Tracer:
    """Records spans of wrapped calls; ``install``/``uninstall`` toggle it.

    Layers a workload never calls still report 0, so every run prints the
    same metric names.
    """

    def __init__(self, program):
        self._points = trace_points(program)
        self.span_names = sorted({name for _, _, name, _ in self._points if name})
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.spans: list[list] = []  # [name, parent index, start, end, index]
        self.counts: Counter = Counter()

    def install(self) -> None:
        for owner, attr, name, counter in self._points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, func, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                counts.update(counter(args, kwargs, result))
                return result
            return counted

        def traced(*args, **kwargs):
            span = [name, stack[-1][4] if stack else -1, clock(), 0.0, len(spans)]
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    def take(self) -> tuple[dict[str, float], Counter]:
        """Self seconds per span name and the counters since the last take."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(self.span_names, 0.0)
        for (name, _, start, end, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
        counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        counts.update(self.counts)
        self.spans.clear()
        self.counts.clear()
        return self_s, counts

"""perfbench's tracer wraps codec functions under the names their callers
read at call time, and its install raises ``KeyError`` on a missing name.
These tests keep every traced name in place and every codec layer visible,
so a rename fails here rather than in a benchmark run.
"""

import importlib
import types
from pathlib import Path

from ricemarlin import DictionarySet, MarlinDictionary, SyntheticFamily, make_distribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROGRAM = types.SimpleNamespace(**{
    name: importlib.import_module(f"ricemarlin.{name}")
    for name in ("dictionary", "encoder", "decoder", "format", "image", "source")
})


def load_tracing() -> types.ModuleType:
    """perfbench/tracing.py as a module, read without writing a bytecode cache."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_point_is_its_owners_own_attribute():
    for owner, attr, _, _ in load_tracing().trace_points(PROGRAM):
        assert attr in vars(owner), (owner.__name__, attr)


def test_traced_round_trip_reaches_every_codec_layer():
    tracing = load_tracing()
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in tracing.trace_points(PROGRAM)]
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dset = DictionarySet([MarlinDictionary.build(dist, k=8, o=4, shift=2, threshold=2**-10)])
    data = dist.sample(5000, seed=25)
    tracer = tracing.Tracer(PROGRAM)
    tracer.install()
    try:
        fmt = PROGRAM.format  # looked up at call time, as the tracer wraps it
        out = fmt.decompress_bytes(fmt.compress_bytes(data, dset), dset)
    finally:
        tracer.uninstall()
    assert out == data
    self_s, _ = tracer.take()
    for name in ("bitpack.pack_units", "bitpack.pack_low_bits", "bitpack.unpack_low_bits",
                 "bitpack.unpack_units", "encoder.walk", "decoder.decode_quotients",
                 "format.container", "encoder.encode_block", "format.serialize_block",
                 "format.parse_block", "decoder.decode_block", "dictionary.quick_select"):
        assert self_s[name] > 0, name
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner.__name__, attr)

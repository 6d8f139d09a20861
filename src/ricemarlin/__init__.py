"""Rice-Marlin: a variable-to-fixed entropy codec toolkit.

Overlapped-codeword dictionaries over bit-split byte quotients, with an
escape channel for rare symbols, a block wire format, persisted dictionary
sets, and a benchmark CLI.
"""

from .dictionary import (
    DictionarySet,
    MarlinDictionary,
    QuotientAlphabet,
    abr_estimate,
    best_dictionary_for,
    build_dictionary_set,
    default_set_config,
    efficiency,
    shift_efficiency_bound,
)
from .decoder import DecoderTable, decode_block, decode_quotients
from .encoder import (
    CompressedBlock,
    EncoderMatrix,
    encode_block,
    pack_reminders,
)
from .errors import (
    BuildError,
    CorruptBlockError,
    EntropyTargetError,
    FormatError,
    RiceMarlinError,
)
from .format import (
    compress_bytes,
    decompress_bytes,
    load_dictset,
    parse_block,
    save_dictset,
    serialize_block,
)
from .source import (
    SymbolDistribution,
    SyntheticFamily,
    empirical_histogram,
    entropy,
    make_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BuildError",
    "CompressedBlock",
    "CorruptBlockError",
    "DecoderTable",
    "DictionarySet",
    "EncoderMatrix",
    "EntropyTargetError",
    "FormatError",
    "MarlinDictionary",
    "QuotientAlphabet",
    "RiceMarlinError",
    "SymbolDistribution",
    "SyntheticFamily",
    "abr_estimate",
    "best_dictionary_for",
    "build_dictionary_set",
    "compress_bytes",
    "decode_block",
    "decode_quotients",
    "decompress_bytes",
    "default_set_config",
    "efficiency",
    "empirical_histogram",
    "encode_block",
    "entropy",
    "load_dictset",
    "make_distribution",
    "pack_reminders",
    "parse_block",
    "save_dictset",
    "serialize_block",
    "shift_efficiency_bound",
]

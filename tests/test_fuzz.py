"""Fuzzers for the file loaders and the stream decoder.

Whatever bytes, words or JSON they are fed, the loaders and
:func:`nhsim.codec.decode` either return a value or raise one of nhsim's
own errors; nothing else (``struct.error``, ``KeyError``, a raw
``ValueError``, ``MemoryError``, ...) may escape.
"""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernels, random_tensor
from nhsim import codec, netmodel, presets
from nhsim.codec import CompressedStream, StreamError
from nhsim.netmodel import FileFormatError, ValidationError

TYPED = (FileFormatError, ValidationError, StreamError)

# header layouts after the 4-byte magic: (magic, struct format, body bytes
# per header) for the three binary containers
_HEADERS = {
    "nht": (b"NHT1", "<HHHB", lambda c, h, w, frac: 2 * c * h * w),
    "nhw": (b"NHW1", "<HHHB", lambda n_out, n_in, k, frac: 2 * n_out * n_in * k * k + 4 * n_out),
    "nhc": (b"NHC1", "<HHHBIB", lambda c, h, w, frac, words, pad: 4 * words),
}
_FIELD_MAX = {"H": 0xFFFF, "B": 0xFF, "I": 0xFFFF_FFFF}


def _valid_file(kind: str, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    t = random_tensor(rng, 3, 4, 5, sparsity=0.5, frac=int(rng.integers(0, 16)))
    if kind == "nht":
        return b"NHT1" + struct.pack("<HHHB", 3, 4, 5, t.qformat.frac_bits) + (
            netmodel.stream_order_values(t).astype("<i2").tobytes()
        )
    if kind == "nhw":
        k = random_kernels(rng, 2, 3, 3, frac=int(rng.integers(0, 16)))
        return b"NHW1" + struct.pack("<HHHB", 2, 3, 3, k.qformat.frac_bits) + (
            k.weights.astype("<i2").tobytes() + k.bias.astype("<i4").tobytes()
        )
    s = codec.encode(t)
    return b"NHC1" + struct.pack(
        "<HHHBIB", 3, 4, 5, s.frac_bits, s.word_count, int(s.padded)
    ) + s.words.astype("<u4").tobytes()


@st.composite
def mutated(draw, kind: str) -> bytes:
    """A valid file with bytes overwritten, cut, inserted or appended."""
    blob = bytearray(_valid_file(kind, draw(st.integers(0, 2**32 - 1))))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "cut", "insert", "append"]))
        at = draw(st.integers(0, len(blob)))
        if op == "set" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == "cut":
            del blob[at:]
        elif op == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            blob += draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


@st.composite
def headed(draw, kind: str) -> bytes:
    """Magic plus arbitrary header fields (small or anywhere in their range),
    and a body whose size usually agrees with the header."""
    magic, fmt, body_size = _HEADERS[kind]
    fields = [
        draw(st.integers(0, 4) | st.integers(0, _FIELD_MAX[code]))
        for code in fmt[1:]
    ]
    size = body_size(*fields)
    if size > 4096 or draw(st.booleans()):
        size = draw(st.integers(0, 64))
    return magic + struct.pack(fmt, *fields) + draw(st.binary(min_size=size, max_size=size))


def blobs(kind: str):
    magic = _HEADERS[kind][0]
    return (
        st.binary(max_size=64)
        | st.binary(max_size=64).map(lambda b: magic + b)
        | headed(kind)
        | mutated(kind)
    )


_LOADERS = {
    "nht": netmodel.load_tensor,
    "nhw": netmodel.load_weights,
    "nhc": codec.load_stream,
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_raises_only_typed_errors(tmp_path_factory, kind, data):
    blob = data.draw(blobs(kind))
    path = tmp_path_factory.mktemp(kind) / f"f.{kind}"
    path.write_bytes(blob)
    try:
        got = _LOADERS[kind](str(path))
    except TYPED:
        return
    if kind == "nhc":  # a stream that loads must also decode or fail typed
        try:
            codec.decode(got)
        except TYPED:
            pass


@st.composite
def streams(draw) -> CompressedStream:
    """Arbitrary words, field counts and header dims."""
    words = np.array(
        draw(st.lists(st.integers(0, 2**32 - 1), max_size=24)), dtype=np.uint32
    )
    count = draw(st.integers(-2, 2 * len(words) + 2))
    dim = st.integers(0, 6) | st.integers(0, 0xFFFF)
    c, h, w = draw(dim), draw(dim), draw(dim)
    frac = draw(st.integers(0, 15) | st.integers(-1, 255))
    return CompressedStream(words, count, c, h, w, frac)


@settings(max_examples=500, deadline=None)
@given(streams())
def test_decode_raises_only_typed_errors(s):
    try:
        t = codec.decode(s)
    except TYPED:
        return
    assert t.values.shape == (s.channels, s.height, s.width)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@st.composite
def network_docs(draw):
    """A valid network document with fields replaced, removed or added."""
    doc = _saved_network_doc(draw(st.sampled_from(presets.preset_names())))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(["layers", "fc", "top"]))
        if section == "top" or not doc.get(section):
            key = draw(st.sampled_from(["layers", "fc", "name"]))
            doc[key] = draw(json_values)
            continue
        entries = doc[section]
        if not isinstance(entries, list) or not entries:
            continue
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        if not isinstance(entry, dict):
            continue
        key = draw(st.sampled_from(sorted(entry) + ["extra"]))
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(json_values | st.integers(-2, 20))
    return doc


def _saved_network_doc(name: str) -> dict:
    """A preset as ``save_network`` writes it, plus one fc entry that reads
    its last layer's output."""
    net = presets.network(name)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "net.json")
        netmodel.save_network(net, path)
        with open(path) as f:
            doc = json.load(f)
    n_in = int(np.prod(net.layers[-1].out_shape))
    doc["fc"] = [{"n_in": n_in, "n_out": 4, "weights": "fc.nhw"}]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=json_values | network_docs())
def test_load_network_raises_only_typed_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_text(json.dumps(doc))
    try:
        netmodel.load_network(str(path))
    except TYPED:
        pass


@settings(max_examples=100, deadline=None)
@given(blob=st.binary(max_size=64))
def test_load_network_bytes_raise_only_typed_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_bytes(blob)
    try:
        netmodel.load_network(str(path))
    except TYPED:
        pass

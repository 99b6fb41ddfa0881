"""Arbitrary bytes and text through the three parsers.

The config, triple and CATW parsers read files from outside the program.
Whatever they are given, the only exceptions that may escape are the
package's own :class:`CatkgError` subclasses, which the CLI turns into
one ``error: <category>:`` line.
"""

import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catkg.config import KEY_MAP, load_config, parse_config
from catkg.errors import CatkgError
from catkg.kg import load_triples
from catkg.tensor import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _accepts_or_rejects(call, *args):
    """Run a parser; a CatkgError is an accepted outcome, nothing else."""
    try:
        call(*args)
    except CatkgError:
        pass


# Lines that look like config entries, so the fuzzer reaches the value
# conversion and validation rather than stopping at the first line.
_config_lines = st.one_of(
    st.text(max_size=40),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(sorted(KEY_MAP)),
              st.text(max_size=20)),
    st.builds(lambda k, v: f"{k} = {v!r}", st.sampled_from(sorted(KEY_MAP)),
              st.one_of(st.integers(), st.floats())),
)


@FUZZ
@given(st.lists(_config_lines, max_size=8).map("\n".join))
def test_parse_config_raises_only_package_errors(text):
    _accepts_or_rejects(parse_config, text)


@FUZZ
@given(st.binary(max_size=200))
def test_load_config_raises_only_package_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(data)
        _accepts_or_rejects(load_config, path)


_triple_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(st.lists(st.sampled_from([b"a", b"b", b"r", b"\xff", b"\xc3",
                                       b"\xe9", b"", b" "]),
                      max_size=4).map(b"\t".join),
             max_size=6).map(b"\n".join),
)


@FUZZ
@given(_triple_bytes, _triple_bytes, _triple_bytes)
def test_load_triples_raises_only_package_errors(train, valid, test):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("train", train), ("valid", valid),
                           ("test", test)):
            path = Path(tmp) / f"{name}.txt"
            path.write_bytes(data)
            paths.append(str(path))
        _accepts_or_rejects(load_triples, *paths)


_header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 1)
_checkpoint_bytes = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda tail: _header + tail),
    # a well-formed name, then arbitrary rank, extents and values
    st.tuples(st.integers(0, 70), st.lists(st.integers(0, 2 ** 64 - 1),
                                           max_size=6),
              st.binary(max_size=64)).map(
        lambda t: _header + struct.pack("<I", 1) + b"w"
        + struct.pack("<I", t[0])
        + struct.pack(f"<{len(t[1])}Q", *t[1]) + t[2]),
)


@FUZZ
@given(_checkpoint_bytes)
def test_load_checkpoint_raises_only_package_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.catw"
        path.write_bytes(data)
        _accepts_or_rejects(load_checkpoint, path)

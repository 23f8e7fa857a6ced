"""Malformed OAMF and PGM files: the readers raise ValueError and nothing else."""
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from oamghost.field_grid import read_field
from oamghost.spiral_imaging import read_pgm

# Headers a broken file may start with: none, a P5 header cut short or with
# bad numbers, and a well-formed OAMF header with any side and extent.
EMPTY = st.just(b"")
PARTIAL_P5 = st.lists(
    st.sampled_from([b" ", b"\n", b"\t", b"# note\n", b"0", b"2", b"3", b"255", b"256",
                     b"65535", b"65536", b"-1", b"2.5", b"x"]),
    max_size=6,
).map(lambda parts: b"P5" + b"".join(parts))
OAMF = st.builds(
    lambda side, extent: struct.pack("<4sHId", b"OAMF", 1, side, extent),
    st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1)),
    st.floats(),
)
FILES = st.builds(bytes.__add__, st.one_of(EMPTY, PARTIAL_P5, OAMF), st.binary(max_size=96))


def _read_or_value_error(reader, path, blob):
    path.write_bytes(blob)
    try:
        reader(path)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(blob=FILES)
def test_read_field_raises_only_value_error(tmp_path_factory, blob):
    _read_or_value_error(read_field, tmp_path_factory.getbasetemp() / "malformed.oamf", blob)


@settings(max_examples=300, deadline=None)
@given(blob=FILES)
def test_read_pgm_raises_only_value_error(tmp_path_factory, blob):
    _read_or_value_error(read_pgm, tmp_path_factory.getbasetemp() / "malformed.pgm", blob)

"""docs/FORMATS.md against the struct definitions the code reads and writes."""

import re
import struct
from pathlib import Path

from saabcodec import codec, kernelio, pipeline

DOC = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text()


def _layout_rows(title):
    """(offset, size) of the numeric rows of the first layout table after
    the line `title`."""
    block = DOC.split(title, 1)[1].split("```", 2)[1]
    return [tuple(map(int, m)) for m in re.findall(r"^(\d+)\s+(\d+)\s", block, re.M)]


def _field_sizes(fmt):
    return [struct.calcsize("<" + code) for code in re.findall(r"\d*[a-zA-Z]", fmt[1:])]


def _check_struct_rows(rows, offset, st):
    """The rows from `offset` on are the fields of struct `st`, in order."""
    fields = [(o, s) for o, s in rows if o >= offset][: len(_field_sizes(st.format))]
    assert [s for _, s in fields] == _field_sizes(st.format)
    assert [o for o, _ in fields] == [offset + sum(_field_sizes(st.format)[:i]) for i in range(len(fields))]
    assert f"struct `{st.format}`" in DOC


def test_bitstream_header():
    fmt, size = re.search(r"Header \(struct `([^`]+)`, (\d+) bytes\)", DOC).groups()
    assert (fmt, int(size)) == (codec._HEADER.format, codec._HEADER.size)
    codes = re.search(r"strategy code \(([^)]*)\)", DOC).group(1)
    assert codes == ", ".join(f"{i} {name}" for i, name in enumerate(codec.STRATEGIES))


def test_corpus_record():
    size = int(re.search(r"fixed (\d+)-byte struct", DOC).group(1))
    dtype = pipeline.RESIDUAL_DTYPE
    assert size == dtype.itemsize == 138
    block = DOC.split("## Residual corpus", 1)[1].split("```", 4)[3]
    rows = re.findall(r"^(\d+)\s+(\d+)\s+(\w+)", block, re.M)
    assert [(int(o), int(s), name) for o, s, name in rows] == [
        (dtype.fields[name][1], dtype[name].itemsize, name) for name in dtype.names
    ]


def test_bank_header():
    rows = _layout_rows("## Kernel bank")
    _check_struct_rows(rows, 4, kernelio._BANK_HEADER)
    meta = int(re.search(r"^(\d+)\s+M\s+meta", DOC, re.M).group(1))
    assert meta == 4 + kernelio._BANK_HEADER.size


def test_kernel_record():
    rows = _layout_rows("Each kernel record:")
    _check_struct_rows(rows, 4, kernelio._KERNEL_HEADER)
    group = int(re.search(r"^(\d+)\s+G\s+mode ids", DOC, re.M).group(1))
    assert group == 4 + kernelio._KERNEL_HEADER.size
    kinds = re.search(r"kind \(u8: ([^)]*)\)", DOC).group(1)
    assert re.findall(r"(\d+) = (\w+)", kinds) == [(str(kernelio._SAAB1_CODE), "saab1")]

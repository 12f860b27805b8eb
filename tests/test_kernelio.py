from dataclasses import replace
from pathlib import Path
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saabcodec import codec, kernelio, pipeline
from saabcodec.errors import InvalidInputError, SaabCodecError
from saabcodec.kernelio import KernelBank
from saabcodec.modes import APPLY_MAP, N_MODES, TRAIN_GROUPS


def _first_record(raw):
    """Offset of kernel record 0 in a bank file's bytes."""
    return 4 + kernelio._BANK_HEADER.size + kernelio._BANK_HEADER.unpack_from(raw, 4)[2]


def test_bank_save_load_roundtrip(tmp_path, bank):
    path = str(tmp_path / "bank.skb")
    bank.save(path)
    back = KernelBank.load(path)
    assert back.digest() == bank.digest()
    for a, b in zip(bank.kernels, back.kernels):
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.bias, b.bias)
    assert back.meta == bank.meta
    for mode in range(N_MODES):
        assert back.kernel_for_mode(mode) is back.kernels[APPLY_MAP[mode]]
    # record k names TRAIN_GROUPS[k] as the modes that trained it
    raw = Path(path).read_bytes()
    offset = _first_record(raw)
    for group in TRAIN_GROUPS:
        group_len = kernelio._KERNEL_HEADER.unpack_from(raw, offset + 4)[2]
        offset += 4 + kernelio._KERNEL_HEADER.size
        assert tuple(raw[offset : offset + group_len]) == group
        offset += group_len + kernelio._KERNEL_BODY_BYTES
    assert offset == len(raw)


def test_bank_kernels_are_read_only(tmp_path, bank):
    path = str(tmp_path / "bank.skb")
    bank.save(path)
    for built in (bank, KernelBank.load(path), bank.rounded(3)):
        for kernel in built.kernels:
            for array in (kernel.matrix, kernel.bias):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
                assert array.base is None  # no other view can change it


def test_cached_digest_is_the_bytes_digest(bank):
    digest = bank.digest()
    assert bank.digest() == digest
    assert KernelBank.from_bytes(bank.to_bytes()).digest() == digest
    # the metadata is hashed too: a changed field gives the re-read bank's digest
    edited = replace(bank, meta=dict(bank.meta))
    edited.digest()
    edited.meta["note"] = "edited"
    assert edited.digest() == KernelBank.from_bytes(edited.to_bytes()).digest() != digest


def test_digest_sensitive_to_contents(bank):
    data = bytearray(bank.to_bytes())
    tampered = KernelBank.from_bytes(bytes(data))
    assert tampered.digest() == bank.digest()


def test_rounded_bank(bank):
    r = bank.rounded(2)
    assert r.digest() != bank.digest()
    assert r.meta["decimal_digits"] == 2
    for a, b in zip(bank.kernels, r.kernels):
        assert np.array_equal(b.matrix, np.round(a.matrix, 2))
        assert np.array_equal(b.bias, np.round(a.bias, 2))
    # coarse rounding breaks exact orthonormality; fine rounding keeps it tiny
    assert max(k.orthonormality_error() for k in bank.rounded(12).kernels) < 1e-10


def test_rounded_identity_at_high_precision(bank):
    r = bank.rounded(20)
    for a, b in zip(bank.kernels, r.kernels):
        assert np.array_equal(a.matrix, b.matrix)


def test_kernel_for_mode_covers_all_modes(bank):
    for mode in range(35):
        k = bank.kernel_for_mode(mode)
        assert k.matrix.shape == (64, 64)


def test_validate(bank):
    bank.validate()
    # rounding to a digit or more keeps every row nonzero and within L1 <= 8
    for digits in (1, 3):
        bank.rounded(digits).validate()


@pytest.mark.parametrize("digits", [-1, -5])
def test_rounded_rejects_negative_digits(bank, digits):
    # -1 is also the file's "not rounded" mark, which such a bank would carry
    with pytest.raises(InvalidInputError):
        bank.rounded(digits)


def test_rounded_digits_fit_the_kernel_record(bank):
    # the record stores decimal digits as an i16
    with pytest.raises(InvalidInputError):
        bank.rounded(kernelio.MAX_DECIMAL_DIGITS + 1)
    r = bank.rounded(kernelio.MAX_DECIMAL_DIGITS)
    assert KernelBank.from_bytes(r.to_bytes()).meta["decimal_digits"] == 2**15 - 1


@pytest.mark.parametrize("row", ["zero", "l1-above-8", "nan"])
def test_validate_rejects_zero_or_oversized_rows(bank, row):
    first = bank.kernels[0]
    matrix = first.matrix.copy()
    matrix[5] = {"zero": 0.0, "l1-above-8": 0.126, "nan": np.nan}[row]
    bad = replace(bank, kernels=(replace(first, matrix=matrix),) + bank.kernels[1:])
    with pytest.raises(InvalidInputError, match="kernel 0"):
        bad.validate()


def test_corrupt_bank_rejected(bank):
    raw = bank.to_bytes()
    with pytest.raises(InvalidInputError):
        KernelBank.from_bytes(b"XXXX" + raw[4:])
    # metadata that is JSON but not an object
    with pytest.raises(InvalidInputError):
        KernelBank.from_bytes(kernelio.BANK_MAGIC + kernelio._BANK_HEADER.pack(1, 0, 1) + b"1")


@pytest.mark.parametrize("count", [23, 25])
def test_writer_rejects_a_kernel_count_other_than_24(tmp_path, tiny_bank, count):
    # a reader accepts no count but 24, so the writer writes no other
    bad = replace(tiny_bank, kernels=(tiny_bank.kernels * 2)[:count])
    for _ in range(2):  # no call caches a digest of such a bank
        with pytest.raises(InvalidInputError, match="expected 24 kernels"):
            bad.digest()
    path = tmp_path / "bank.skb"
    with pytest.raises(InvalidInputError, match="expected 24 kernels"):
        bad.save(str(path))
    assert not path.exists()


# case -> (offset from record 0's magic, bytes written there)
RECORD_HEAD_EDITS = {
    "kind-0-dct": (4, b"\x00"),
    "kind-1-klt": (4, b"\x01"),
    "digits-5-in-unrounded-bank": (5, struct.pack("<h", 5)),
    "digits-minus-251": (5, struct.pack("<h", -251)),
    "group-byte-9": (8, b"\x09"),
}
# case -> the value the bank metadata stores as decimal_digits
META_DIGITS = {"meta-digits-text": "3", "meta-digits-minus-1": -1, "meta-digits-40000": 40000}


@pytest.mark.parametrize(
    "case", sorted(RECORD_HEAD_EDITS) + sorted(META_DIGITS) + ["23-kernels", "25-kernels"]
)
def test_record_head_other_than_the_banks_rejected(tiny_bank, bank_bytes_with_table, case):
    # every record head follows from its kernel index and the metadata's
    # decimal_digits; a reader accepts no other head and no count but 24
    raw = tiny_bank.to_bytes()
    last = len(raw) - (8 + len(TRAIN_GROUPS[-1]) + kernelio._KERNEL_BODY_BYTES)
    assert raw[last : last + 4] == kernelio.KERNEL_MAGIC
    if case in RECORD_HEAD_EDITS:
        offset, value = RECORD_HEAD_EDITS[case]
        at = _first_record(raw) + offset
        bad = raw[:at] + value + raw[at + len(value) :]
    elif case in META_DIGITS:
        bad = bank_bytes_with_table(tiny_bank, decimal_digits=META_DIGITS[case])
    else:
        records = raw[:last] if case == "23-kernels" else raw + raw[last:]
        count = 23 if case == "23-kernels" else 25
        bad = records[:8] + struct.pack("<I", count) + records[12:]
    assert bad != raw
    with pytest.raises(InvalidInputError):
        KernelBank.from_bytes(bad)


# case -> metadata keys a bank file stores in place of the fixed table
OTHER_TABLES = {
    "apply-map-not-a-list": {"apply_map": 5},
    "train-groups-of-ints": {"train_groups": [5]},
    "apply-map-of-lists": {"apply_map": [[m] for m in APPLY_MAP]},
    "no-train-groups": {"train_groups": None},
    "no-table": {"apply_map": None, "train_groups": None},
    "all-zero-apply-map": {"apply_map": [0] * N_MODES},
}


@pytest.mark.parametrize("case", sorted(OTHER_TABLES))
def test_bank_with_another_mode_table_rejected(tiny_bank, bank_bytes_with_table, case):
    # unchanged, the helper's bytes are the writer's; the table is the
    # codec's, so a bank file may only restate it
    assert bank_bytes_with_table(tiny_bank) == tiny_bank.to_bytes()
    with pytest.raises(InvalidInputError, match="mode table"):
        KernelBank.from_bytes(bank_bytes_with_table(tiny_bank, **OTHER_TABLES[case]))


@pytest.fixture(scope="module")
def damage_targets(tmp_path_factory, tiny_bank, tiny_records, tiny_clip):
    """Intact bytes of a bank, a 20-record corpus and a stream, each with the
    loader that reads it back from a file."""
    directory = tmp_path_factory.mktemp("damaged")
    corpus = directory / "corpus.bin"
    pipeline.save_residual_corpus(str(corpus), tiny_records[:20])
    stream, _ = codec.encode_sequence(tiny_clip[:1], 22, codec.StrategyConfig("s3", tiny_bank))
    return directory, {
        "bank": (tiny_bank.to_bytes(), KernelBank.load),
        "corpus": (corpus.read_bytes(), pipeline.load_residual_corpus),
        "stream": (stream, lambda path: codec.decode_sequence(Path(path).read_bytes(), tiny_bank)),
    }


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["bank", "corpus", "stream"]),
    how=st.sampled_from(["truncate", "flip", "append", "random"]),
    damage=st.data(),
)
def test_damaged_files_raise_only_typed_errors(damage_targets, kind, how, damage):
    directory, targets = damage_targets
    raw, load = targets[kind]
    if how == "truncate":
        raw = raw[: damage.draw(st.integers(0, len(raw) - 1), label="length")]
    elif how == "flip":
        # half of the flips land in the first 400 bytes, where the headers are
        head = 8 * min(400, len(raw))
        bit = damage.draw(
            st.one_of(st.integers(0, head - 1), st.integers(0, 8 * len(raw) - 1)), label="bit"
        )
        raw = bytearray(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
    elif how == "append":
        raw += damage.draw(st.binary(min_size=1, max_size=64), label="tail")
    else:
        # the magic, so the reader gets past its first check, then noise
        raw = raw[:4] + damage.draw(st.binary(max_size=2048), label="body")
    path = directory / f"damaged_{kind}.bin"
    path.write_bytes(bytes(raw))
    if how == "append":
        with pytest.raises(SaabCodecError):
            load(str(path))
        return
    try:
        load(str(path))
    except SaabCodecError:
        pass

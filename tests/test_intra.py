import numpy as np
import pytest

from saabcodec import intra
from saabcodec.errors import InvalidInputError


def _random_surface(rng, h=40, w=56):
    return rng.integers(0, 256, size=(h, w)).astype(np.int32)


def test_no_neighbors_gives_flat_128():
    recon = np.zeros((16, 16), dtype=np.int32)
    refs = intra.build_references(recon, 0, 0)
    assert refs.dtype == np.int32 and refs.tolist() == [128] * 69 + [1]  # dc 128, then 1
    preds = intra.predict_all_modes(refs)
    assert np.all(preds == 128)


@pytest.mark.parametrize("value", [0, 77, 255])  # 255: the largest sums
def test_flat_references_predict_flat(value):
    recon = np.full((24, 24), value, dtype=np.int32)
    refs = intra.build_references(recon, 1, 1)
    preds = intra.predict_all_modes(refs)
    assert np.all(preds == value)
    assert np.all(intra.predict_block(np.tile(refs, (35, 1)), np.arange(35)) == value)


def test_predictions_in_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        recon = _random_surface(rng)
        refs = intra.build_references(recon, 3, 2)
        preds = intra.predict_all_modes(refs)
        assert preds.min() >= 0 and preds.max() <= 255


def test_vertical_mode_copies_top_row():
    recon = np.zeros((16, 24), dtype=np.int32)
    recon[7, 8:16] = np.arange(100, 108)
    recon[:, 7] = 50
    refs = intra.build_references(recon, 1, 1)
    pred = intra.predict_block(refs, 26)  # pure vertical, angle 0
    # columns 1..7 copy the top reference; column 0 is boundary-filtered
    for x in range(1, 8):
        assert np.all(pred[:, x] == 100 + x)


def test_horizontal_mode_copies_left_column():
    recon = np.zeros((24, 16), dtype=np.int32)
    recon[8:16, 7] = np.arange(60, 68)
    recon[7, :] = 90
    refs = intra.build_references(recon, 1, 1)
    pred = intra.predict_block(refs, 10)  # pure horizontal
    for y in range(1, 8):
        assert np.all(pred[y, :] == 60 + y)


def test_smoothing_rule():
    assert intra.smoothing_enabled(0)
    assert not intra.smoothing_enabled(1)
    for mode in (9, 10, 11, 25, 26, 27):
        assert not intra.smoothing_enabled(mode)
    for mode in (2, 18, 34):
        assert intra.smoothing_enabled(mode)


def test_reference_substitution_continuity():
    # only the top row is available: left references inherit the corner value
    recon = np.zeros((16, 16), dtype=np.int32)
    recon[7, :] = 200
    refs = intra.build_references(recon, 0, 1)
    above, left = refs[:17], refs[17:34]
    assert np.all(above == 200)
    assert np.all(left == 200)


def test_references_of_one_block_wide_and_tall_frames():
    """Substitution at the frame edges, written out by hand.  In an 8x24
    frame, block (0, 1) sees only the top row t = 10..80: top-right repeats
    t[7], and corner, left and below-left repeat t[0].  A 24x8 frame is its
    transpose: block (1, 0) sees only the left column l = 10..80 (top to
    bottom): below-left repeats l[7], and corner, top and top-right repeat
    l[0].  [1 2 1] smoothing moves only the ramp's ends, 10 -> 13, 80 -> 78.
    dc is (10 + ... + 80 + 8 x 10 + 8) >> 4 = 28 in both."""
    ramp = list(range(10, 90, 10))
    ramp_f = [13, 20, 30, 40, 50, 60, 70, 78]
    run = [10, *ramp, *[80] * 8]
    run_f = [10, *ramp_f, *[80] * 8]
    flat = [10] * 17

    wide = np.full((24, 8), 250, dtype=np.uint8)
    wide[:7] = 240
    wide[7] = ramp
    assert intra.build_references(wide, 0, 1).tolist() == run + flat + run_f + flat + [28, 1]

    tall = np.full((8, 24), 250, dtype=np.uint8)
    tall[:, :7] = 240
    tall[:, 7] = ramp
    assert intra.build_references(tall, 1, 0).tolist() == flat + run + flat + run_f + [28, 1]


def test_bad_positions_rejected():
    recon = np.zeros((16, 16), dtype=np.int32)
    with pytest.raises(InvalidInputError):
        intra.build_references(recon, 2, 0)
    refs = intra.build_references(recon, 0, 0)
    with pytest.raises(InvalidInputError):
        intra.predict_block(refs, 35)
    # frames off a 3-frame stack, and off a single surface
    stack = np.zeros((3, 16, 16), dtype=np.uint8)
    for frame in (3, 5, -1, np.array([0, 2, 3])):
        with pytest.raises(InvalidInputError, match="off the grid"):
            intra.build_references(stack, np.array([0, 1, 1]), np.array([1, 0, 1]), frame=frame)
    with pytest.raises(InvalidInputError, match="off the grid"):
        intra.build_references(recon, 1, 1, frame=1)
    assert np.array_equal(intra.build_references(stack, 1, 1, frame=2),
                          intra.build_references(stack[2], 1, 1))


@pytest.mark.parametrize(
    "bx,by,frame",
    [(1.5, 0, 0), (0, 1.0, 0), (0, 0, 0.5), (np.array([0.0, 1.0]), np.array([0, 1]), 0), ("1", 0, 0)],
)
def test_non_integer_positions_rejected(bx, by, frame):
    stack = np.zeros((3, 16, 16), dtype=np.uint8)
    with pytest.raises(InvalidInputError, match="must be integers"):
        intra.build_references(stack, bx, by, frame=frame)


@pytest.mark.parametrize("bx,by,frame", [([1, 1], [1], [0, 1, 1]), ([1, 1], [1, 1, 1], 0)])
def test_non_broadcasting_positions_rejected(bx, by, frame):
    stack = np.zeros((3, 16, 16), dtype=np.uint8)
    with pytest.raises(InvalidInputError, match="do not broadcast"):
        intra.build_references(stack, bx, by, frame=frame)
    # one-element arrays broadcast by numpy's rule, as scalars do
    assert intra.build_references(stack, [1, 1], [1], frame=[2]).shape == (2, 70)


@pytest.mark.parametrize("length", [60, 68])
def test_predictors_reject_other_reference_lengths(length):
    """68 is the layout without [dc, 1], which must not reach the product."""
    refs = np.full((4, length), 100, dtype=np.int32)
    with pytest.raises(InvalidInputError, match="70 samples"):
        intra.predict_all_modes(refs)
    with pytest.raises(InvalidInputError, match="70 samples"):
        intra.predict_block(refs, 3)


def test_predict_block_rejects_bad_modes():
    refs = np.tile(intra.build_references(np.zeros((16, 16), dtype=np.uint8), 1, 1), (12, 1))
    for mode in (3.7, 3.0, np.full(12, 2.5), True):
        with pytest.raises(InvalidInputError, match="integers"):
            intra.predict_block(refs, mode)
    modes = np.arange(12)
    modes[[4, 9]] = -1, 40
    with pytest.raises(InvalidInputError, match=r"^intra mode -1 of block 4 out of range$"):
        intra.predict_block(refs, modes)
    modes[4] = 0
    with pytest.raises(InvalidInputError, match=r"^intra mode 40 of block 9 out of range$"):
        intra.predict_block(refs, modes)


def test_predict_block_takes_one_mode_per_block():
    """A mode array predicts each block with its own mode: the same samples
    as predict_all_modes and as one predict_block call per block."""
    rng = np.random.default_rng(3)
    recon = rng.integers(0, 256, size=(3, 40, 56)).astype(np.uint8)
    n = 70
    frame, bx, by = rng.integers(0, 3, n), rng.integers(0, 7, n), rng.integers(0, 5, n)
    refs = intra.build_references(recon, bx, by, frame=frame)
    modes = rng.permutation(np.resize(np.arange(35), n))  # every mode twice
    got = intra.predict_block(refs, modes)
    assert np.array_equal(got, intra.predict_all_modes(refs)[np.arange(n), modes])
    for i in range(n):
        assert np.array_equal(got[i], intra.predict_block(refs[i], modes[i]))
    with pytest.raises(InvalidInputError, match="intra mode 35 of block 5 "):
        intra.predict_block(refs, np.where(np.arange(n) == 5, 35, modes))


# The standard's DC mode and mode-10/26 edge filters in integer arithmetic, as
# the reference the table's weights on `dc`, `above` and `left` are checked
# against.  `above` and `left` are the reference vector's first two parts;
# `pred` is one mode's (blocks, 8, 8) prediction, written in place.  The
# edge filters return their edge before its clip.
def _dc_mode(pred, above, left):
    t, l = above[:, 1:9], left[:, 1:9]
    dc = (t.sum(-1, keepdims=True) + l.sum(-1, keepdims=True) + 8) >> 4
    pred[:] = dc[:, :, None]
    pred[:, 0, 1:] = (t[:, 1:] + 3 * dc + 2) >> 2
    pred[:, 1:, 0] = (l[:, 1:] + 3 * dc + 2) >> 2
    pred[:, 0, 0] = (l[:, 0] + 2 * dc[:, 0] + t[:, 0] + 2) >> 2


def _horizontal_edge(pred, above, left):
    row = left[:, 1:2] + ((above[:, 1:9] - above[:, :1]) >> 1)
    pred[:, 0, :] = np.clip(row, 0, 255)
    return row


def _vertical_edge(pred, above, left):
    col = above[:, 1:2] + ((left[:, 1:9] - above[:, :1]) >> 1)
    pred[:, :, 0] = np.clip(col, 0, 255)
    return col


def test_scaled_table_equals_the_integer_table():
    """The float32 table predicts what the standard's integer process does in
    int64: planar and angular as (W . refs + 2**(shift-1)) >> shift, W the
    table's weights on the 68 reference samples scaled by 2**shift (4 for
    planar, 5 for angular), then the DC mode and the mode-10/26 edges by the
    reference filters above.  Surfaces of 0s and 255s give the largest partial
    sums and drive the mode-10/26 edges below 0 and above 255."""
    shift = np.where(np.arange(35) < 2, 4, 5)[:, None]
    table = intra._WEIGHTS * 2.0**shift[:, None]  # (35, 70, 64), mode-major
    assert np.array_equal(table, np.round(table))
    table = table[:, :68].astype(np.int64)
    rng = np.random.default_rng(4)
    surfaces = [rng.integers(0, 256, size=(40, 56)), 255 * rng.integers(0, 2, size=(40, 56))]
    recon = np.stack(surfaces + [np.full((40, 56), 255)]).astype(np.uint8)
    n = 300
    frame, bx, by = rng.integers(0, 3, n), rng.integers(0, 7, n), rng.integers(0, 5, n)
    refs = intra.build_references(recon, bx, by, frame=frame)
    want = (np.einsum("kr,mrp->kmp", refs[:, :68].astype(np.int64), table) + (1 << shift >> 1)) >> shift
    want = want.reshape(n, 35, 8, 8)
    above, left = refs[:, :17].astype(np.int64), refs[:, 17:34].astype(np.int64)
    _dc_mode(want[:, 1], above, left)
    for mode, fix in ((10, _horizontal_edge), (26, _vertical_edge)):
        edge = fix(want[:, mode], above, left)
        assert edge.min() < 0 and edge.max() > 255
    assert np.array_equal(intra.predict_all_modes(refs), want)
    modes = rng.integers(0, 35, n)
    assert np.array_equal(intra.predict_block(refs, modes), want[np.arange(n), modes])

import numpy as np
import pytest

from rfekit.image import (
    FEATURE_DIM,
    PageImage,
    PgmError,
    PgmFormatError,
    PgmTruncatedError,
    decode_pgm,
    encode_pgm,
    image_features,
)


def make_image(pixels):
    arr = np.asarray(pixels, dtype=np.int64)
    return PageImage(width=arr.shape[1], height=arr.shape[0], pixels=arr)


def test_decode_ascii_pgm():
    img = decode_pgm(b"P2\n2 2\n255\n0 0 255 255\n")
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.tolist() == [[0, 0], [255, 255]]
    assert img.pixels.dtype == np.uint8
    assert decode_pgm(b"P2\n3 1\n255\n010 005 0\n").pixels.tolist() == [[10, 5, 0]]


def test_decode_binary_pgm():
    img = decode_pgm(b"P5\n3 1\n255\n" + bytes([10, 20, 30]))
    assert img.pixels.tolist() == [[10, 20, 30]]
    assert img.pixels.dtype == np.uint8
    assert img.pixels.flags.writeable  # a copy, not a view of the bytes


def test_decode_header_comments():
    img = decode_pgm(b"P2\n# a comment\n1 1\n255\n7\n")
    assert img.pixels.tolist() == [[7]]


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"P5#c\n2 1 255\n\x01\x02", [[1, 2]]),
        (b"P5 2 #c\n1 #\n255\n\x01\x02", [[1, 2]]),
        (b"P2 # c\n2 1 # c\n 255 # c\n1 # c\n2 # c", [[1, 2]]),
        (b"P5 2 1 #c", PgmFormatError),
        (b"P5 2 1 255 #c", [[35, 99]]),
        (b"P2 1 1 255 #c", PgmTruncatedError),
        (b"P5\r2\x0b1\x0c255\r\x01\x02", [[1, 2]]),
        (b"P5\t2\t1\t255\t\t\x02", [[9, 2]]),
        (b"P512 1\n255\n" + bytes(range(12)), [list(range(12))]),
        (b"P5 1 1 255", PgmFormatError),
        (b"P5 1 1 255\x07", PgmFormatError),
        (b"P5 2 x 255 \x01\x02", PgmFormatError),
        (b"P5 2#1 1 255 \x01\x02", PgmFormatError),
        (b"P5 +2 1 255 \x01\x02", PgmFormatError),
        (b"P5 2 1 \xd9\xa7 \x01\x02", PgmFormatError),
        (b"P5", PgmFormatError),
        (b"P5 2 1", PgmFormatError),
        (b"P5 2 1 ", PgmFormatError),
        (b"P5 02 01 0255 \x01\x02", [[1, 2]]),
        (b"P5 " + b"1" * 5000 + b" 1 255 ", PgmError),
        (b"P5 0 2 255 ", PgmFormatError),
        (b"P5 2 0 255 ", PgmFormatError),
    ],
    ids=["comment-after-magic", "comment-between-fields", "p2-comments",
         "comment-ends-file", "p5-comment-after-maxval-is-payload",
         "p2-comment-after-maxval-is-no-sample", "cr-vt-ff",
         "tab-then-payload-tab", "magic-glued-to-width", "no-whitespace-after-maxval",
         "control-byte-after-maxval", "non-digit-field", "hash-inside-field",
         "signed-field", "non-ascii-digit-field", "magic-only", "ends-before-maxval",
         "ends-after-height", "leading-zeros", "5000-digit-width", "zero-width",
         "zero-height"],
)
def test_decode_header_table(data, expected):
    """The PGM header grammar: the magic, then three runs of ASCII digits
    each after whitespace or ``#`` comments running to a newline, then one
    whitespace byte before the payload."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            decode_pgm(data)
    else:
        img = decode_pgm(data)
        assert img.pixels.tolist() == expected
        assert (img.height, img.width) == np.shape(expected)


@pytest.mark.parametrize("data", [b"P5 2 1 #255\n\x01\x02", b"P5 2 1 # 255 \n\x01\x02"])
def test_decode_header_comment_is_never_a_field(data):
    """A ``#`` comment runs to its newline, even when the header then ends
    early: a commented-out maxval is missing, not a bad token or a field."""
    with pytest.raises(PgmFormatError, match="^header ended before"):
        decode_pgm(data)


def test_decode_rejects_p6():
    with pytest.raises(PgmFormatError):
        decode_pgm(b"P6\n1 1\n255\n\x00\x00\x00")


def test_decode_rejects_big_maxval():
    with pytest.raises(PgmFormatError):
        decode_pgm(b"P2\n1 1\n65535\n300\n")


def test_decode_truncated_payload():
    with pytest.raises(PgmTruncatedError):
        decode_pgm(b"P2\n2 2\n255\n0 0 255\n")
    with pytest.raises(PgmTruncatedError):
        decode_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))


def test_decode_sample_above_maxval():
    with pytest.raises(PgmFormatError):
        decode_pgm(b"P2\n1 2\n100\n5 101\n")


def pgm_page(magic, width, height, maxval, samples):
    header = f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")
    if magic == "P5":
        return header + bytes(samples)
    return header + " ".join(map(str, samples)).encode("ascii") + b"\n"


@pytest.mark.parametrize("maxval", [1, 15])
@pytest.mark.parametrize("magic", ["P5", "P2"])
def test_decode_scales_samples_by_maxval(magic, maxval):
    """A page at maxval 1 or 15 decodes to the same pixels, and so the same
    features, as the same page written at maxval 255 (255 / maxval is an
    integer here, so the copy is exact)."""
    width, height = 37, 33  # past the 32 x 32 grid
    rng = np.random.default_rng(maxval)
    samples = [0, maxval] + rng.integers(0, maxval + 1, width * height - 2).tolist()
    page = decode_pgm(pgm_page(magic, width, height, maxval, samples))
    copy = decode_pgm(pgm_page(magic, width, height, 255, [v * (255 // maxval) for v in samples]))
    assert page.pixels.dtype == np.uint8
    assert page.pixels.tolist() == copy.pixels.tolist()
    assert page.pixels.max() == 255
    assert np.array_equal(image_features(page), image_features(copy))


def test_decode_all_white_page_is_white_at_every_maxval():
    for maxval in (1, 2, 15, 100, 255):
        for magic in ("P5", "P2"):
            page = decode_pgm(pgm_page(magic, 40, 40, maxval, [maxval] * 1600))
            assert np.array_equal(image_features(page), np.ones(FEATURE_DIM)), (magic, maxval)


@pytest.mark.parametrize(
    "maxval, sample, pixel",
    [(2, 1, 128), (3, 1, 85), (6, 1, 43), (254, 1, 1), (254, 127, 128), (254, 253, 254),
     (100, 37, 94), (255, 200, 200)],
)
def test_decode_rounds_scaled_samples_to_nearest_halves_up(maxval, sample, pixel):
    """``v * 255 / maxval`` to the nearest integer, a half rounding up."""
    for magic in ("P5", "P2"):
        assert decode_pgm(pgm_page(magic, 1, 1, maxval, [sample])).pixels.tolist() == [[pixel]]


@pytest.mark.parametrize(
    "sample",
    [b"256", b"300", b"-1", b"-0", b"511", b"65536", b"18446744073709551615",
     pytest.param(b"9" * 5000, id="5000-digits")],
)
def test_decode_ascii_sample_outside_a_byte_is_refused(sample):
    """P2 samples are range-checked before the cast to uint8, so none wraps
    around into a valid byte, and one past 64 bits or past int's digit limit
    is no stray OverflowError or ValueError."""
    with pytest.raises(PgmFormatError, match="out of range"):
        decode_pgm(b"P2\n2 1\n255\n7 " + sample + b"\n")


@pytest.mark.parametrize(
    "samples", [b"1_0 +5 0_0_7", b"10 +5 7", b"1_0 5 7", b"10 5 0x7", b"10 5 \xd9\xa7", b"10 5 7.0"]
)
def test_decode_ascii_sample_must_be_ascii_digits(samples):
    """A P2 sample is ASCII digits only, like the header's fields: Python
    ``int`` would read ``1_0 +5 0_0_7`` as 10, 5 and 7."""
    with pytest.raises(PgmFormatError, match="want ASCII digits"):
        decode_pgm(b"P2\n3 1\n255\n" + samples + b"\n")


def test_roundtrip_through_encoder():
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(40, 30))
    img = make_image(pixels)
    assert decode_pgm(encode_pgm(img)).pixels.tolist() == pixels.tolist()


def test_features_white_page():
    img = make_image(np.full((64, 64), 255))
    feats = image_features(img)
    assert feats.shape == (FEATURE_DIM,)
    assert feats == pytest.approx(np.ones(FEATURE_DIM))


def test_features_black_page():
    assert image_features(make_image(np.zeros((40, 40)))) == pytest.approx(
        np.zeros(FEATURE_DIM)
    )


def test_features_half_and_half():
    pixels = np.zeros((64, 64))
    pixels[:32, :] = 255
    feats = image_features(make_image(pixels))
    assert feats[:512] == pytest.approx(np.ones(512))
    assert feats[512:] == pytest.approx(np.zeros(512))


def test_features_range_and_length():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h, w = int(rng.integers(1, 90)), int(rng.integers(1, 90))
        feats = image_features(make_image(rng.integers(0, 256, size=(h, w))))
        assert feats.shape == (FEATURE_DIM,)
        assert np.all(feats >= 0.0) and np.all(feats <= 1.0)


def test_features_tiny_images_fill_from_scan_order():
    feats = image_features(make_image([[100]]))
    assert feats == pytest.approx(np.full(FEATURE_DIM, 100 / 255))


def test_features_replication_invariance():
    # exact for dimensions divisible by the grid size, where scaled cell
    # boundaries land on scaled pixel boundaries
    rng = np.random.default_rng(5)
    for factor in (2, 3):
        pixels = rng.integers(0, 256, size=(64, 32))
        big = np.repeat(np.repeat(pixels, factor, axis=0), factor, axis=1)
        before = image_features(make_image(pixels))
        after = image_features(make_image(big))
        assert after == pytest.approx(before, abs=1e-9)


def test_features_brightening_is_monotone():
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 200, size=(50, 37))
    base = image_features(make_image(pixels))
    brighter = image_features(make_image(pixels + 55))
    assert np.all(brighter >= base - 1e-12)


def test_page_image_validates_shape():
    with pytest.raises(ValueError):
        PageImage(width=2, height=2, pixels=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PageImage(width=0, height=1, pixels=np.zeros((1, 0)))


def loop_image_features(image):
    """Per-cell reference for image_features: one cell.mean() per grid cell."""
    pixels = image.pixels.astype(np.float64)
    row_edges = [(k * image.height) // 32 for k in range(33)]
    col_edges = [(k * image.width) // 32 for k in range(33)]
    features = np.full(FEATURE_DIM, np.nan)
    previous = None
    pos = 0
    for r in range(32):
        band = pixels[row_edges[r] : row_edges[r + 1]]
        for c in range(32):
            cell = band[:, col_edges[c] : col_edges[c + 1]]
            if cell.size:
                previous = cell.mean() / 255.0
            if previous is not None:
                features[pos] = previous
            pos += 1
    head = np.isnan(features)
    if head.any():
        features[head] = features[~head][0]
    return features


@pytest.mark.parametrize(
    "shape", [(1, 1), (5, 40), (31, 33), (40, 7), (100, 3), (33, 1), (128, 96)]
)
def test_features_match_per_cell_loop(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for _ in range(3):
        img = make_image(rng.integers(0, 256, size=shape))
        assert np.array_equal(image_features(img), loop_image_features(img))


@pytest.mark.parametrize(
    "shapes", [[(20, 9), (64, 48)], [(128, 96), (7, 31), (128, 96)], [(1, 40), (40, 1)]]
)
def test_features_are_the_same_for_every_pixel_dtype(shapes):
    """The grid layout is shared by every page of one shape; each shape in
    one process gets its own, and the pixel dtype never reaches a feature."""
    rng = np.random.default_rng(sum(h * w for h, w in shapes))
    for shape in shapes:
        values = rng.integers(0, 256, size=shape)
        pages = [
            PageImage(width=shape[1], height=shape[0], pixels=values.astype(dtype))
            for dtype in (np.uint8, np.int64, np.float64)
        ]
        expected = loop_image_features(pages[1])
        for page in pages:
            assert image_features(page).tobytes() == expected.tobytes()
        encoded = decode_pgm(encode_pgm(pages[0]))
        assert image_features(encoded).tobytes() == expected.tobytes()

"""Cipher module: PGM I/O, XOR involution, histogram and uniformity."""

import hashlib
import io

import numpy as np
import pytest

from chaosbits import (
    CHI2_1PCT_255DF,
    ChaoticBitGenerator,
    GeneratorConfig,
    GrayscaleImage,
    Histogram,
    SeedSpec,
    TranscriptDriver,
    chi_square_uniformity,
    histogram,
    keystream_bytes,
    pack_bits,
    read_pgm,
    write_pgm,
    xor_cipher,
)


def gradient_image(w=64, h=64):
    return GrayscaleImage(w, h, bytes(((x + y) * 2) % 256 for y in range(h) for x in range(w)))


def scheme6_config(t=484076):
    return GeneratorConfig(5, (14, 15), SeedSpec.from_time(t))


# -- image and histogram types ----------------------------------------------


def test_grayscale_image_validation():
    GrayscaleImage(2, 3, bytes(6))
    with pytest.raises(ValueError):
        GrayscaleImage(0, 3, b"")
    with pytest.raises(ValueError):
        GrayscaleImage(2, -1, b"")
    with pytest.raises(ValueError):
        GrayscaleImage(2, 3, bytes(5))


def test_histogram_validation_and_total():
    h = histogram(gradient_image())
    assert isinstance(h, Histogram)
    assert h.total == 64 * 64
    assert len(h.bins) == 256
    with pytest.raises(ValueError):
        Histogram(bins=(0,) * 255)
    with pytest.raises(ValueError):
        Histogram(bins=(-1,) + (0,) * 255)


def test_histogram_constant_image_single_bin():
    img = GrayscaleImage(8, 4, bytes([77] * 32))
    h = histogram(img)
    assert h.bins[77] == 32
    assert h.total == 32


def test_histogram_counts_match_byte_oracle():
    img = gradient_image()
    h = histogram(img)
    for value in (0, 2, 126, 252, 255):
        assert h.bins[value] == img.pixels.count(value)


# -- PGM I/O -------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    img = gradient_image()
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back == img
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n64 64\n255\n")


def test_pgm_read_accepts_comments_and_whitespace():
    data = b"P5 # magic\n# a comment line\n 2 # width\n3\n255\n" + bytes(6)
    img = read_pgm(io.BytesIO(data))
    assert (img.width, img.height) == (2, 3)


def test_pgm_read_small_maxval():
    data = b"P5\n2 2\n15\n" + bytes([0, 5, 10, 15])
    img = read_pgm(io.BytesIO(data))
    assert img.pixels == bytes([0, 5, 10, 15])


@pytest.mark.parametrize(
    "data",
    [
        b"P6\n2 2\n255\n" + bytes(12),  # wrong magic
        b"P5\n2 2\n256\n" + bytes(8),  # maxval too large
        b"P5\n2 2\n0\n" + bytes(4),  # maxval zero
        b"P5\n0 2\n255\n",  # zero dimension
        b"P5\n2 2\n255\n" + bytes(3),  # truncated raster
        b"P5\n2\n",  # truncated header
        b"P5\nx 2\n255\n" + bytes(4),  # non-numeric header
    ],
)
def test_pgm_read_rejects_malformed(data):
    with pytest.raises(ValueError):
        read_pgm(io.BytesIO(data))


def test_pgm_read_header_ending_at_eof():
    # The maxval token ends at end of file, so no raster follows it.
    with pytest.raises(ValueError, match="raster truncated"):
        read_pgm(io.BytesIO(b"P5 2 2 255"))


def test_pgm_write_to_stream():
    buf = io.BytesIO()
    write_pgm(GrayscaleImage(2, 2, bytes([0, 128, 200, 255])), buf)
    assert buf.getvalue() == b"P5\n2 2\n255\n" + bytes([0, 128, 200, 255])


# -- keystream ------------------------------------------------------------------


def test_keystream_first_bytes_worked_example():
    cfg = GeneratorConfig(5, (4, 5), SeedSpec.explicit((1, 0, 1, 0, 0), 0.1))
    driver = TranscriptDriver((4, 5, 4), (2, 4, 2, 2, 5, 1, 1, 5, 5, 3, 2, 3, 3))
    bits = ChaoticBitGenerator(cfg, driver=driver).bits(16)
    assert pack_bits(bits) == bytes([0xA7, 0xBF])


def test_keystream_zero_count_and_validation():
    assert keystream_bytes(scheme6_config(), 0) == b""
    with pytest.raises(ValueError):
        keystream_bytes(scheme6_config(), -1)


@pytest.mark.parametrize("count", [True, 2.5, -1])
def test_bit_and_byte_counts_must_be_non_negative_ints(count):
    cfg = scheme6_config()
    with pytest.raises(ValueError, match=r"bits: count must be an integer >= 0"):
        ChaoticBitGenerator(cfg).bits(count)
    with pytest.raises(ValueError, match=r"keystream_bytes: count must be an integer >= 0"):
        keystream_bytes(cfg, count)


def test_keystream_matches_packed_bits():
    cfg = scheme6_config()
    ks = keystream_bytes(cfg, 50)
    assert ks == pack_bits(ChaoticBitGenerator(cfg).bits(400))
    assert len(ks) == 50


def test_keystream_hash_stability_regression():
    # Deterministic per seed: a frozen digest guards against silent
    # changes in the generation pipeline.  Constant-gap scheme (N=8,
    # M={8}) keeps the draw count proportional to output size.
    cfg = GeneratorConfig(8, (8,), SeedSpec.from_time(484076))
    ks = keystream_bytes(cfg, 10 ** 6)
    assert len(ks) == 10 ** 6
    digest = hashlib.sha256(ks).hexdigest()
    assert digest == KEYSTREAM_SHA256_1M


# Frozen on first run and cross-checked against an independent
# re-simulation via the module-level step operations.
KEYSTREAM_SHA256_1M = "80c712c390919305b8dca111a9be5d3daf59095ea099de92d377623130151147"


# -- cipher ---------------------------------------------------------------------


def test_xor_cipher_involution():
    img = gradient_image()
    cfg = scheme6_config()
    enc = xor_cipher(img, cfg)
    assert enc.pixels != img.pixels
    assert (enc.width, enc.height) == (img.width, img.height)
    dec = xor_cipher(enc, cfg)
    assert dec == img


def test_xor_cipher_zero_image_yields_keystream():
    img = GrayscaleImage(16, 8, bytes(128))
    cfg = scheme6_config()
    enc = xor_cipher(img, cfg)
    assert enc.pixels == keystream_bytes(cfg, 128)


def test_xor_cipher_encrypted_histogram_uniform():
    enc = xor_cipher(gradient_image(), scheme6_config())
    chi2 = chi_square_uniformity(histogram(enc))
    assert chi2 < CHI2_1PCT_255DF


def test_xor_cipher_destroys_plain_structure():
    img = gradient_image()
    plain_chi2 = chi_square_uniformity(histogram(img))
    enc_chi2 = chi_square_uniformity(histogram(xor_cipher(img, scheme6_config())))
    assert plain_chi2 > 10 * CHI2_1PCT_255DF
    assert enc_chi2 < CHI2_1PCT_255DF


def test_key_sensitivity_adjacent_seeds():
    # Configs differing in the last seed digit must produce ciphertexts
    # differing in at least 45% of bytes (they differ in ~99.6%).
    img = gradient_image()
    enc_a = xor_cipher(img, scheme6_config(484076)).pixels
    enc_b = xor_cipher(img, scheme6_config(484077)).pixels
    frac = sum(1 for a, b in zip(enc_a, enc_b) if a != b) / len(enc_a)
    assert frac >= 0.45


# scheme-6/484077's state orbit repeats every 727,512 blocks, 454,695
# keystream bytes, and from byte 1,394,226 on every pad byte equals the
# byte one period earlier.
PAD_PERIOD = 454_695
PAD_REPEATS_FROM = 1_394_226


def test_pad_repeats_inside_one_image():
    # A two-time pad within one image: past the repeat point, ciphertext
    # XOR the ciphertext one period earlier is plaintext XOR plaintext.
    w, h = 1400, 1000
    assert w * h >= PAD_REPEATS_FROM + 4096
    rng = np.random.default_rng(20261020)
    buf = io.BytesIO()
    write_pgm(GrayscaleImage(w, h, rng.integers(0, 256, w * h, dtype=np.uint8).tobytes()), buf)
    plain = read_pgm(io.BytesIO(buf.getvalue()))
    enc = xor_cipher(plain, scheme6_config(484077))
    p = np.frombuffer(plain.pixels, dtype=np.uint8)
    c = np.frombuffer(enc.pixels, dtype=np.uint8)
    # leak[j] compares the bytes at i = j + PAD_PERIOD and i - PAD_PERIOD.
    leak = (c[PAD_PERIOD:] ^ c[:-PAD_PERIOD]) == (p[PAD_PERIOD:] ^ p[:-PAD_PERIOD])
    start = PAD_REPEATS_FROM - PAD_PERIOD
    assert leak[start:].all()
    assert not leak[start - 1]


def test_chi_square_uniformity_closed_forms():
    # Perfectly uniform counts: chi2 = 0.
    assert chi_square_uniformity(Histogram(bins=(4,) * 256)) == 0.0
    # All mass in one bin with n=256: chi2 = 255^2/1 + 255*1 = 65280.
    bins = (256,) + (0,) * 255
    assert chi_square_uniformity(Histogram(bins=bins)) == pytest.approx(65280.0, rel=1e-12)
    with pytest.raises(ValueError):
        chi_square_uniformity(Histogram(bins=(0,) * 256))


def test_chi2_critical_value_constant():
    assert CHI2_1PCT_255DF == 310.46

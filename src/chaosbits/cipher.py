"""One-time-pad cipher for 8-bit grayscale images, with histogram tools.

The keystream is the generator's bit output packed into bytes
(first-emitted bit in the most significant position); encryption is a
byte-wise XOR over the row-major pixel array, so applying it twice with
the same configuration restores the original image exactly.  A one-time
pad is only as good as its discipline: never reuse a keystream, which
here means never encrypting two images under the same configuration.

Images are exchanged as binary PGM (P5).  The reader accepts any
maxval up to 255 and '#' comments in the header; the writer always
emits maxval 255.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from .generator import ChaoticBitGenerator, GeneratorConfig, require_int

__all__ = [
    "GrayscaleImage",
    "Histogram",
    "read_pgm",
    "write_pgm",
    "histogram",
    "keystream_bytes",
    "xor_cipher",
    "chi_square_uniformity",
    "CHI2_1PCT_255DF",
]

# 1% upper critical value of chi-square with 255 degrees of freedom,
# the usual reference for 256-bin byte-uniformity checks.
CHI2_1PCT_255DF = 310.46


@dataclass(frozen=True)
class GrayscaleImage:
    """8-bit grayscale raster: row-major pixel bytes."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", require_int(self.width, "GrayscaleImage: width", 1))
        object.__setattr__(self, "height", require_int(self.height, "GrayscaleImage: height", 1))
        object.__setattr__(self, "pixels", bytes(self.pixels))
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"GrayscaleImage: {self.width}x{self.height} needs "
                f"{self.width * self.height} pixel bytes, got {len(self.pixels)}"
            )


@dataclass(frozen=True)
class Histogram:
    """256-bin pixel-value counts; the bins sum to the pixel count."""

    bins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != 256:
            raise ValueError(f"Histogram: expected 256 bins, got {len(self.bins)}")
        if any(b < 0 for b in self.bins):
            raise ValueError("Histogram: bin counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.bins)


def _read_header_token(stream: io.BufferedIOBase) -> bytes:
    # One whitespace-delimited header token; '#' starts a comment that
    # runs to end of line.
    token = b""
    while True:
        c = stream.read(1)
        if not c:
            if token:
                return token
            raise ValueError("PGM: truncated header")
        if c == b"#":
            while c and c != b"\n":
                c = stream.read(1)
            continue
        if c.isspace():
            if token:
                return token
            continue
        token += c


def read_pgm(source) -> GrayscaleImage:
    """Read a binary PGM (P5) file with maxval at most 255.

    source is a path or a binary file object.  Header comments are
    accepted; exactly one whitespace byte separates the maxval from the
    raster, per the format.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return read_pgm(fh)
    magic = _read_header_token(source)
    if magic != b"P5":
        raise ValueError(f"PGM: expected magic P5, got {magic!r}")
    try:
        width = int(_read_header_token(source))
        height = int(_read_header_token(source))
        maxval = int(_read_header_token(source))
    except ValueError as exc:
        raise ValueError(f"PGM: malformed header ({exc})") from None
    if width < 1 or height < 1:
        raise ValueError(f"PGM: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"PGM: maxval {maxval} unsupported (need 1..255)")
    raster = source.read(width * height)
    if len(raster) != width * height:
        raise ValueError(
            f"PGM: raster truncated, expected {width * height} bytes, got {len(raster)}"
        )
    return GrayscaleImage(width=width, height=height, pixels=raster)


def write_pgm(image: GrayscaleImage, target) -> None:
    """Write a binary PGM (P5) file with maxval 255.

    target is a path or a binary file object.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "wb") as fh:
            write_pgm(image, fh)
        return
    target.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
    target.write(image.pixels)


def histogram(image: GrayscaleImage) -> Histogram:
    """256-bin count of the image's pixel values."""
    counts = np.bincount(np.frombuffer(image.pixels, dtype=np.uint8), minlength=256)
    return Histogram(bins=tuple(counts.tolist()))


def _xor_keystream(buf: bytearray, config: GeneratorConfig) -> None:
    """XOR the first len(buf) keystream bytes of a fresh generator into buf.

    The keystream is read packed, in the generator's chunks, and each
    chunk is XORed in place, so the keystream is never held whole,
    packed or not.
    """
    if not buf:
        return
    out = np.frombuffer(buf, dtype=np.uint8)
    at = 0
    for piece in ChaoticBitGenerator(config).chunks(8 * len(buf), 8, packed=True):
        out[at : at + piece.size] ^= piece
        at += piece.size


def keystream_bytes(config: GeneratorConfig, count: int) -> bytes:
    """First ``count`` keystream bytes of a fresh generator.

    Packs 8*count generated bits with the first-emitted bit in the most
    significant position of byte 0.  The bits are read and packed in
    the generator's chunks, so memory grows with count by packed bytes
    only, never by the unpacked bits, one byte each.
    """
    buf = bytearray(require_int(count, "keystream_bytes: count", 0))
    _xor_keystream(buf, config)
    return bytes(buf)


def xor_cipher(image: GrayscaleImage, config: GeneratorConfig) -> GrayscaleImage:
    """XOR the image with a fresh keystream from config.

    Dimensions are preserved.  The transform is an involution: applying
    it twice with the same config returns the original image byte for
    byte.  Decryption is therefore this same function.  The keystream
    is XORed into a copy of the pixels chunk by chunk, never held whole.
    """
    pixels = bytearray(image.pixels)
    _xor_keystream(pixels, config)
    return GrayscaleImage(width=image.width, height=image.height, pixels=pixels)


def chi_square_uniformity(hist: Histogram) -> float:
    """Chi-square of a histogram against the uniform 256-bin expectation.

    chi2 = sum over bins of (count - n/256)^2 / (n/256).  Compare
    against CHI2_1PCT_255DF for a 1% uniformity check.
    """
    n = hist.total
    if n == 0:
        raise ValueError("chi_square_uniformity: empty histogram")
    expected = n / 256.0
    counts = np.asarray(hist.bins, dtype=np.float64)
    return float(np.sum((counts - expected) ** 2 / expected))

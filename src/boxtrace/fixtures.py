"""Deterministic synthetic BMFF corpora for tests and desk-scale runs.

Fixtures are written as real byte-level container files so the parser is
exercised end to end. Each class edit leaves a distinct structural trace
(an extra metadata box, rewritten brands, a flattened layout), while
per-file noise lands only in fields whose values the default blacklist
or the likelihood-ratio filter is expected to remove.

With `FixtureSpec.varied`, the seed also draws traces that edits leave
(where exiftool writes its XMP, the brands ffmpeg and the platform
write), each device's layout (extra compatible brands, track order,
version-1 headers, `co64`, edit lists, a `uuid` box in `moov`) and
optional parts of each file (a `free` box in `moov`, with a 64-bit size
or not, QuickTime zero padding, a size-0 final `mdat`, a `free` box with
a 64-bit size in each `trak`), and a `uuid` box in each of a device's
`trak`s, so corpora of two seeds train different trees and files of one
device and class need not be equal.
"""

from __future__ import annotations

import csv
import random
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .evaluate import MANIFEST_HEADER, DatasetManifest, load_manifest

_MATRIX = struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)

# Shared by every Android profile; survives the exiftool edit only.
_ANDROID_UUID = bytes.fromhex("ffcc8263f8554a938814587a02521fdd")
_XMP_UUID = bytes.fromhex("be7acfcb97a942e89c71999491e3afac")


def box(type4: bytes, payload: bytes = b"") -> bytes:
    assert len(type4) == 4
    return struct.pack(">I4s", 8 + len(payload), type4) + payload


def large_box(type4: bytes, payload: bytes = b"") -> bytes:
    """A box whose size is in the 64-bit field (size 1)."""
    return struct.pack(">I4sQ", 1, type4, 16 + len(payload)) + payload


def full_box(type4: bytes, version: int, flags: int, body: bytes) -> bytes:
    return box(type4, bytes([version]) + flags.to_bytes(3, "big") + body)


def container_box(type4: bytes, *children: bytes) -> bytes:
    return box(type4, b"".join(children))


@dataclass(frozen=True)
class DeviceProfile:
    """Base container layout quirks of one synthetic recording device."""

    profile_id: str
    os: str
    major_brand: bytes
    compatible_brands: tuple[bytes, ...]
    video_format: bytes
    video_handler_name: bytes
    vendor_box: bytes
    movie_timescale: int
    width: int
    height: int


DEFAULT_PROFILES = (
    DeviceProfile("D01", "Android", b"mp42", (b"mp42", b"isom"), b"hvc1",
                  b"MediaWriter", b"sefd", 90000, 1920, 1080),
    DeviceProfile("D02", "Android", b"mp42", (b"mp42", b"isom"), b"hvc1",
                  b"MediaWriter", b"lgev", 90000, 3840, 2160),
    DeviceProfile("D03", "Android", b"mp42", (b"mp42", b"isom"), b"hvc1",
                  b"MediaWriter", b"htcq", 10000, 1280, 720),
    DeviceProfile("D04", "iOS", b"qt  ", (b"qt  ",), b"avc1",
                  b"Core Media Video", b"apli", 600, 1920, 1080),
    DeviceProfile("D05", "iOS", b"qt  ", (b"qt  ",), b"avc1",
                  b"Core Media Video", b"aapl", 600, 3840, 2160),
    DeviceProfile("D06", "iOS", b"qt  ", (b"qt  ",), b"avc1",
                  b"Core Media Video", b"apld", 600, 1280, 720),
)


# The layout of a file with no seeded variation: every default corpus.
_PLAIN_LAYOUT = {
    "xmp": "udta", "remux_brands": (b"isom", b"iso2", None, b"mp41"),
    "dash_brands": (b"iso6", b"avc1", b"mp41"), "brands": (),
    "audio_first": False, "version": 0, "co64": False, "edit_list": False,
    "uuid": None, "free": None, "padding": False, "open_mdat": False,
    "trak_uuid": None, "trak_free": False,
}
# ffmpeg's compatible brands (None: the video format) and a platform's.
_REMUX_BRANDS = ((b"isom", b"iso2", None, b"mp41"), (b"mp42", b"isom", None),
                 (b"isom", b"iso6", b"mp41"))
_DASH_BRANDS = ((b"iso6", b"avc1", b"mp41"), (b"iso5", b"dash", b"avc1"))
_EXTRA_BRANDS = (b"iso5", b"3gp4", b"M4V ", b"avc1", b"dby1")


def _draw_layout(seed: int, profile_id: str, cls: str, index: int) -> dict:
    """The seeded layout of one varied file: the corpus's choices, the
    device's, then the file's own."""
    corpus = random.Random(f"{seed}/edits")
    device = random.Random(f"{seed}/{profile_id}/layout")
    one = random.Random(f"{seed}/{profile_id}/{cls}/{index}/layout")
    # The boxes below moov draw from streams of their own, so the draws
    # above keep the values they had before these boxes were added.
    device_trak = random.Random(f"{seed}/{profile_id}/trak")
    one_trak = random.Random(f"{seed}/{profile_id}/{cls}/{index}/trak")
    return {
        # exiftool's XMP: an `XMP_` box in `udta` or `moov`, or a
        # top-level XMP `uuid` box.
        "xmp": corpus.choice(("udta", "moov", "uuid")),
        # The brands of ffmpeg's and the platform's `ftyp`.
        "remux_brands": corpus.choice(_REMUX_BRANDS),
        "dash_brands": corpus.choice(_DASH_BRANDS),
        "brands": tuple(device.sample(_EXTRA_BRANDS, device.randrange(3))),
        "audio_first": device.random() < 0.5,
        "version": int(device.random() < 0.5),
        "co64": device.random() < 0.5,
        "edit_list": device.random() < 0.5,
        "uuid": device.randbytes(16) if device.random() < 0.5 else None,
        # A `free` box in `moov`: absent, or with a 32- or 64-bit size.
        "free": one.choice((None, None, 32, 64)),
        "padding": one.random() < 0.3,
        "open_mdat": one.random() < 0.3,
        # A `uuid` box in each `trak`, and a `free` box with a 64-bit size
        # at the end of each `trak`.
        "trak_uuid": (device_trak.randbytes(16) if device_trak.random() < 0.5
                      else None),
        "trak_free": one_trak.random() < 0.5,
    }


def _ftyp(major: bytes, minor: int, brands: tuple[bytes, ...]) -> bytes:
    return box(b"ftyp", struct.pack(">4sI", major, minor) + b"".join(brands))


def _mvhd(creation: int, timescale: int, duration: int, next_track: int,
          version: int) -> bytes:
    body = struct.pack(">QQIQ" if version else ">IIII", creation, creation,
                       timescale, duration)
    body += struct.pack(">ihH", 0x00010000, 0x0100, 0)
    body += struct.pack(">II", 0, 0)
    body += _MATRIX
    body += b"\x00" * 24
    body += struct.pack(">I", next_track)
    return full_box(b"mvhd", version, 0, body)


def _tkhd(creation: int, track_id: int, duration: int,
          width: int, height: int, volume: int, version: int) -> bytes:
    body = struct.pack(">QQIIQ" if version else ">IIIII", creation, creation,
                       track_id, 0, duration)
    body += b"\x00" * 8
    body += struct.pack(">hhhH", 0, 0, volume, 0)
    body += _MATRIX
    body += struct.pack(">II", width << 16, height << 16)
    return full_box(b"tkhd", version, 3, body)


def _mdhd(creation: int, timescale: int, duration: int,
          version: int) -> bytes:
    language = ((ord("u") - 0x60) << 10) | ((ord("n") - 0x60) << 5) | (ord("d") - 0x60)
    body = struct.pack(">QQIQHH" if version else ">IIIIHH", creation,
                       creation, timescale, duration, language, 0)
    return full_box(b"mdhd", version, 0, body)


def _hdlr(handler: bytes, name: bytes) -> bytes:
    body = struct.pack(">I4s", 0, handler) + b"\x00" * 12 + name + b"\x00"
    return full_box(b"hdlr", 0, 0, body)


def _dref() -> bytes:
    url = full_box(b"url ", 0, 1, b"")
    return full_box(b"dref", 0, 0, struct.pack(">I", 1) + url)


def _stsd(entry_format: bytes, entry_body_len: int) -> bytes:
    entry = box(entry_format, b"\x00" * entry_body_len)
    return full_box(b"stsd", 0, 0, struct.pack(">I", 1) + entry)


def _stts(sample_count: int, delta: int) -> bytes:
    return full_box(b"stts", 0, 0, struct.pack(">III", 1, sample_count, delta))


def _stsc() -> bytes:
    return full_box(b"stsc", 0, 0, struct.pack(">IIII", 1, 1, 1, 1))


def _stsz(sample_count: int, rng: random.Random) -> bytes:
    sizes = [rng.randrange(400, 4000) for _ in range(sample_count)]
    body = struct.pack(">II", 0, sample_count)
    body += struct.pack(f">{sample_count}I", *sizes)
    return full_box(b"stsz", 0, 0, body)


def _stco(co64: bool) -> bytes:
    if co64:
        return full_box(b"co64", 0, 0, struct.pack(">IQ", 1, 48))
    return full_box(b"stco", 0, 0, struct.pack(">II", 1, 48))


def _elst(duration: int, version: int) -> bytes:
    body = struct.pack(">IQqhH" if version else ">IIihH", 1, duration, 1024,
                       1, 0)
    return full_box(b"elst", version, 0, body)


def _trak(creation: int, track_id: int, duration: int, timescale: int,
          handler: bytes, handler_name: bytes, entry_format: bytes,
          entry_body_len: int, media_header: bytes, width: int, height: int,
          volume: int, sample_count: int, rng: random.Random,
          with_edit_list: bool, layout: dict) -> bytes:
    version = layout["version"]
    stbl = container_box(
        b"stbl",
        _stsd(entry_format, entry_body_len),
        _stts(sample_count, 512),
        _stsc(),
        _stsz(sample_count, rng),
        _stco(layout["co64"]),
    )
    minf = container_box(b"minf", media_header, container_box(b"dinf", _dref()),
                         stbl)
    mdia = container_box(b"mdia", _mdhd(creation, timescale, duration, version),
                         _hdlr(handler, handler_name), minf)
    parts = [_tkhd(creation, track_id, duration, width, height, volume,
                   version)]
    if with_edit_list:
        parts.append(container_box(b"edts", _elst(duration, version)))
    parts.append(mdia)
    if layout["trak_uuid"] is not None:
        parts.append(_uuid_box(layout["trak_uuid"], bytes(4)))
    if layout["trak_free"]:
        parts.append(large_box(b"free", bytes(8)))
    return container_box(b"trak", *parts)


def _vmhd() -> bytes:
    return full_box(b"vmhd", 0, 1, struct.pack(">HHHH", 0, 0, 0, 0))


def _smhd() -> bytes:
    return full_box(b"smhd", 0, 0, struct.pack(">hH", 0, 0))


def _uuid_box(user_type: bytes, payload: bytes) -> bytes:
    return box(b"uuid", user_type + payload)


@dataclass
class _Noise:
    creation: int
    duration: int
    mdat_len: int
    video_samples: int
    audio_samples: int
    vendor_len: int
    meta_len: int
    next_track: int


def _draw_noise(rng: random.Random, index: int) -> _Noise:
    return _Noise(
        creation=rng.randrange(3_300_000_000, 3_600_000_000),
        duration=rng.randrange(900, 90_000),
        mdat_len=rng.randrange(200, 900),
        video_samples=rng.randrange(24, 120),
        audio_samples=rng.randrange(40, 200),
        vendor_len=rng.randrange(8, 32),
        meta_len=rng.randrange(64, 200),
        # Alternates deterministically so every class sees both values
        # equally often; the likelihood-ratio filter must drop it.
        next_track=3 + (index % 2),
    )


def _moov(layout: dict, mvhd: bytes, video: bytes, audio: bytes | None,
          *rest: bytes) -> bytes:
    """`moov` with its tracks in the layout's order and the layout's
    optional boxes after `rest`."""
    tracks = [video] if audio is None else \
        [audio, video] if layout["audio_first"] else [video, audio]
    extra = []
    if layout["uuid"] is not None:
        extra.append(_uuid_box(layout["uuid"], bytes(4)))
    if layout["free"] is not None:
        extra.append((large_box if layout["free"] == 64 else box)(
            b"free", bytes(8)))
    if layout["padding"]:
        extra.append(bytes(4))  # QuickTime's zero terminator
    return container_box(b"moov", mvhd, *tracks, *rest, *extra)


def _mdat(noise: _Noise, layout: dict) -> bytes:
    if layout["open_mdat"]:  # size 0: the box runs to the end of the file
        return struct.pack(">I4s", 0, b"mdat") + bytes(noise.mdat_len)
    return box(b"mdat", bytes(noise.mdat_len))


def _build_device_style(profile: DeviceProfile, noise: _Noise,
                        rng: random.Random, layout: dict,
                        with_xmp: bool = False) -> bytes:
    """Native-style layout; the exiftool edit adds XMP and drops `wide`."""
    udta_children = []
    os_tag = b"auth" if profile.os == "iOS" else b"smta"
    udta_children.append(box(os_tag, bytes(noise.meta_len % 48 + 6)))
    xmp = box(b"XMP_", bytes(noise.meta_len)) if with_xmp else None
    if xmp and layout["xmp"] == "udta":
        udta_children.append(xmp)
    version = layout["version"]
    moov = _moov(
        layout,
        _mvhd(noise.creation, profile.movie_timescale, noise.duration,
              noise.next_track, version),
        _trak(noise.creation, 1, noise.duration, profile.movie_timescale,
              b"vide", profile.video_handler_name, profile.video_format, 70,
              _vmhd(), profile.width, profile.height, 0, noise.video_samples,
              rng, layout["edit_list"], layout),
        _trak(noise.creation, 2, noise.duration, 44100, b"soun",
              b"Core Media Audio" if profile.os == "iOS" else b"SoundHandle",
              b"mp4a", 28, _smhd(), 0, 0, 0x0100, noise.audio_samples, rng,
              layout["edit_list"], layout),
        container_box(b"udta", *udta_children),
        *([xmp] if xmp and layout["xmp"] == "moov" else []),
    )
    parts = [_ftyp(profile.major_brand, 0,
                   profile.compatible_brands + layout["brands"])]
    if profile.os == "Android":
        parts.append(_uuid_box(_ANDROID_UUID, bytes(8)))
    parts.append(moov)
    if xmp and layout["xmp"] == "uuid":
        parts.append(_uuid_box(_XMP_UUID, bytes(noise.meta_len)))
    parts.append(box(profile.vendor_box, bytes(noise.vendor_len)))
    if profile.os == "iOS" and not with_xmp:
        parts.append(box(b"wide"))
    parts.append(_mdat(noise, layout))
    return b"".join(parts)


def _build_ffmpeg_style(profile: DeviceProfile, noise: _Noise,
                        rng: random.Random, layout: dict) -> bytes:
    """Remuxed layout: new brands and edit lists, codec entries copied."""
    moov = _moov(
        layout,
        _mvhd(noise.creation, 1000, noise.duration, noise.next_track,
              layout["version"]),
        _trak(noise.creation, 1, noise.duration, 1000, b"vide",
              b"VideoHandler", profile.video_format, 70, _vmhd(),
              profile.width, profile.height, 0, noise.video_samples, rng,
              True, layout),
        _trak(noise.creation, 2, noise.duration, 44100, b"soun",
              b"SoundHandler", b"mp4a", 28, _smhd(), 0, 0, 0x0100,
              noise.audio_samples, rng, True, layout),
    )
    brands = tuple(profile.video_format if brand is None else brand
                   for brand in layout["remux_brands"])
    return b"".join([
        _ftyp(b"isom", 512, brands),
        moov,
        box(b"free", bytes(8)),
        box(profile.vendor_box, bytes(noise.vendor_len)),
        _mdat(noise, layout),
    ])


def _build_platform_style(profile: DeviceProfile, noise: _Noise,
                          rng: random.Random, layout: dict) -> bytes:
    """Transcoded layout: uniform structure regardless of the source OS."""
    moov = _moov(
        layout,
        _mvhd(noise.creation, 15360, noise.duration, noise.next_track,
              layout["version"]),
        _trak(noise.creation, 1, noise.duration, 15360, b"vide",
              b"ISO Media file produced by Google Inc.", b"avc1", 70,
              _vmhd(), 1280, 720, 0, noise.video_samples, rng,
              False, layout),
        None,
    )
    return b"".join([
        _ftyp(b"dash", 0, layout["dash_brands"]),
        box(b"sidx", bytes(32)),
        moov,
        box(profile.vendor_box, bytes(noise.vendor_len)),
        _mdat(noise, layout),
    ])


# Each fixture class: its manifest `software` and `platform` values and
# the builder of its files.
_CLASSES = {
    "native": ("none", "none", _build_device_style),
    "exiftool": ("exiftool", "none", partial(_build_device_style,
                                             with_xmp=True)),
    "ffmpeg": ("ffmpeg", "none", _build_ffmpeg_style),
    "youtube": ("none", "youtube", _build_platform_style),
}
SUPPORTED_CLASSES = tuple(_CLASSES)


@dataclass(frozen=True)
class FixtureSpec:
    """Seeded recipe for a labeled corpus; same seed, same bytes."""

    seed: int = 7
    profiles: tuple[DeviceProfile, ...] = DEFAULT_PROFILES
    classes: tuple[str, ...] = SUPPORTED_CLASSES
    videos_per_cell: int = 4
    varied: bool = False


def generate_corpus(spec: FixtureSpec, out_dir: str | Path) -> DatasetManifest:
    """Write one file per (profile, class, index) cell plus a manifest CSV."""
    unknown = [c for c in spec.classes if c not in _CLASSES]
    if unknown:
        raise ValueError(f"unsupported fixture classes: {unknown}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for profile in spec.profiles:
        for cls in spec.classes:
            software, platform, build = _CLASSES[cls]
            for index in range(spec.videos_per_cell):
                rng = random.Random(
                    f"{spec.seed}/{profile.profile_id}/{cls}/{index}")
                noise = _draw_noise(rng, index)
                layout = (_draw_layout(spec.seed, profile.profile_id, cls,
                                       index)
                          if spec.varied else _PLAIN_LAYOUT)
                name = f"{profile.profile_id}_{cls}_{index:02d}.mp4"
                (out / name).write_bytes(build(profile, noise, rng, layout))
                rows.append((name, profile.profile_id, profile.os,
                             software, platform))
    manifest_path = out / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return load_manifest(manifest_path)

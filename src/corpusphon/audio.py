"""WAV header inspection, aligner-readiness checks, channel extraction.

Only header parsing and raw PCM deinterleaving live here. Resampling is
deliberately not implemented: a naive resampler would silently degrade a
corpus, so the validator points at sox instead (the aligners only need
16 kHz mono).
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO

from .errors import ToolkitError
from .report import Report

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# GUID tail shared by the PCM and float sub-formats of WAVE_FORMAT_EXTENSIBLE
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")

MFA_SAMPLE_RATE = 16000


class AudioError(ToolkitError):
    pass


class NotRiff(AudioError):
    """Content does not start with a RIFF/WAVE container."""


class MissingFmtChunk(AudioError):
    pass


class MissingDataChunk(AudioError):
    pass


class UnsupportedFormatCode(AudioError):
    """Compressed or otherwise unsupported sample encoding."""


class ChannelOutOfRange(AudioError):
    pass


@dataclass(frozen=True)
class WavInfo:
    sample_rate: int
    channels: int
    bits_per_sample: int
    format_code: int  # 1 = integer PCM, 3 = IEEE float
    data_bytes: int
    data_offset: int  # where the sample frames start in the file image

    @property
    def bytes_per_frame(self) -> int:
        return self.channels * self.bits_per_sample // 8

    @property
    def duration(self) -> float:
        return self.data_bytes / (self.bytes_per_frame * self.sample_rate)


def read_wav_header(f: BinaryIO) -> WavInfo:
    """Locate the fmt and data chunks by walking the RIFF chunk list.

    Only the chunk headers and the first 40 bytes of fmt are read, so the
    cost does not grow with the audio. Unknown chunks (LIST, bext, PEAK,
    ...) are skipped, so metadata ahead of fmt does not disturb the parse.
    WAVE_FORMAT_EXTENSIBLE is resolved through its sub-format GUID.
    """
    head = f.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise NotRiff("not a RIFF/WAVE file")

    fmt: tuple[int, int, int, int] | None = None
    data: tuple[int, int] | None = None
    pos, end = 12, f.seek(0, io.SEEK_END)
    while pos + 8 <= end:
        f.seek(pos)
        cid, size = struct.unpack("<4sI", f.read(8))
        start = pos + 8
        pos = start + size + (size & 1)  # chunks are word-aligned
        size = min(size, end - start)  # a truncated file cuts the body short
        if cid == b"fmt " and fmt is None:
            if size < 16:
                raise MissingFmtChunk(f"fmt chunk truncated to {size} bytes")
            body = f.read(min(size, 40))
            code, channels, rate = struct.unpack_from("<HHI", body)
            (bits,) = struct.unpack_from("<H", body, 14)
            if code == WAVE_FORMAT_EXTENSIBLE:
                code = _resolve_extensible(body)
            fmt = (code, channels, rate, bits)
        elif cid == b"data" and data is None:
            data = (start, size)
    if fmt is None:
        raise MissingFmtChunk("no fmt chunk found")
    if data is None:
        raise MissingDataChunk("no data chunk found")

    code, channels, rate, bits = fmt
    if code not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatCode(
            f"format code {code:#x} is not integer PCM or IEEE float"
        )
    if channels < 1 or rate < 1 or bits < 1:
        raise MissingFmtChunk(
            f"implausible fmt fields: {channels} channels, {rate} Hz, "
            f"{bits} bits"
        )
    return WavInfo(
        sample_rate=rate,
        channels=channels,
        bits_per_sample=bits,
        format_code=code,
        data_bytes=data[1],
        data_offset=data[0],
    )


def parse_wav_header(content: bytes) -> WavInfo:
    """read_wav_header over a file image held in memory."""
    return read_wav_header(io.BytesIO(content))


def _resolve_extensible(fmt_body: bytes) -> int:
    if len(fmt_body) < 40:
        raise UnsupportedFormatCode(
            "WAVE_FORMAT_EXTENSIBLE fmt chunk too short for a sub-format GUID"
        )
    guid = fmt_body[24:40]
    if guid[2:] != _KSDATAFORMAT_TAIL:
        raise UnsupportedFormatCode(
            f"unrecognized extensible sub-format GUID {guid.hex()}"
        )
    (code,) = struct.unpack_from("<H", guid, 0)
    return code


def validate_for_mfa(info: WavInfo, target_rate: int = MFA_SAMPLE_RATE) -> Report:
    """The aligner wants single-channel audio at the model's sample rate."""
    report = Report()
    if info.sample_rate != target_rate:
        report.error(
            "wav",
            f"sample rate is {info.sample_rate} Hz, not {target_rate} Hz; "
            f"resample with e.g. 'sox in.wav -r {target_rate} out.wav'",
        )
    if info.channels != 1:
        report.error(
            "wav",
            f"{info.channels} channels, not mono; extract one with "
            "'sox in.wav out.wav remix 2' or the audio mono subcommand",
        )
    return report


def extract_channel(content: bytes, channel_index: int) -> bytes:
    """Deinterleave one channel (1-based) into a well-formed mono WAV.

    Integer PCM only; sample rate, bit depth, and per-channel sample count
    are preserved. Extracting channel 1 of a mono file is an identity on the
    sample data.
    """
    info = parse_wav_header(content)
    if info.format_code != WAVE_FORMAT_PCM:
        raise UnsupportedFormatCode(
            "channel extraction supports integer PCM only"
        )
    if not 1 <= channel_index <= info.channels:
        raise ChannelOutOfRange(
            f"channel {channel_index} of a {info.channels}-channel file"
        )

    bps = info.bits_per_sample // 8
    frame = info.bytes_per_frame
    usable = info.data_bytes - (info.data_bytes % frame)
    data = content[info.data_offset : info.data_offset + usable]
    offset = (channel_index - 1) * bps

    mono = bytearray(len(data) // info.channels)
    for j in range(bps):
        mono[j::bps] = data[offset + j :: frame]

    return build_wav(
        bytes(mono), info.sample_rate, 1, info.bits_per_sample
    )


def build_wav(
    frames: bytes, sample_rate: int, channels: int, bits_per_sample: int
) -> bytes:
    """Assemble a canonical 44-byte-header PCM WAV around raw frames."""
    bps = bits_per_sample // 8
    block_align = channels * bps
    byte_rate = sample_rate * block_align
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(frames),
        b"WAVE",
        b"fmt ",
        16,
        WAVE_FORMAT_PCM,
        channels,
        sample_rate,
        byte_rate,
        block_align,
        bits_per_sample,
        b"data",
        len(frames),
    )
    return header + frames

"""WAV header inspection, aligner-readiness checks, channel extraction.

Only header parsing and raw PCM deinterleaving live here. Resampling is
deliberately not implemented: a naive resampler would silently degrade a
corpus, so the validator points at sox instead (the aligners only need
16 kHz mono).

Channel extraction streams: read_channel checks an open file's header, then
yields the mono WAV header first and the samples in blocks of whole frames of
at most BLOCK_BYTES (or one frame), so memory is bounded by a block, not a file.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator

from .errors import ToolkitError
from .report import Report

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# GUID tail shared by the PCM and float sub-formats of WAVE_FORMAT_EXTENSIBLE
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")

MFA_SAMPLE_RATE = 16000

# sample data read at a time; 64 KiB to 1 MiB ran at the same speed
BLOCK_BYTES = 1 << 18


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


class DataShrank(AudioError):
    """The file got shorter than its header said while its data was read."""


@dataclass(frozen=True)
class WavInfo:
    sample_rate: int
    channels: int
    bits_per_sample: int
    format_code: int  # 1 = integer PCM, 3 = IEEE float
    data_bytes: int
    data_offset: int  # where the sample frames start in the file image

    @property
    def bytes_per_sample(self) -> int:
        # the WAVE container rule: a sample takes whole bytes, 12 bits take 2
        return (self.bits_per_sample + 7) // 8

    @property
    def bytes_per_frame(self) -> int:
        return self.channels * self.bytes_per_sample

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


def read_channel(f: BinaryIO, channel_index: int) -> Iterator[bytes]:
    """Deinterleave one channel (1-based) of the WAV open in f into a mono WAV.

    Integer PCM only; sample rate, bit depth, and per-channel sample count
    are preserved. Extracting channel 1 of a mono file is an identity on the
    sample data. The header is checked before this returns. A read of the
    chunks that fails or comes up short raises an AudioError, so a consumer
    writing the chunks can tell the input's failure from its own.
    """
    info = read_wav_header(f)
    if info.format_code != WAVE_FORMAT_PCM:
        raise UnsupportedFormatCode(
            "channel extraction supports integer PCM only"
        )
    if not 1 <= channel_index <= info.channels:
        raise ChannelOutOfRange(
            f"channel {channel_index} of a {info.channels}-channel file"
        )
    f.seek(info.data_offset)
    return _mono_chunks(f, info, channel_index)


def _mono_chunks(f: BinaryIO, info: WavInfo, channel_index: int) -> Iterator[bytes]:
    bps, frame = info.bytes_per_sample, info.bytes_per_frame
    left = info.data_bytes - (info.data_bytes % frame)
    offset = (channel_index - 1) * bps
    step = max(1, BLOCK_BYTES // frame) * frame
    yield _header(replace(info, channels=1, data_bytes=left // info.channels))
    while left:
        want = min(step, left)
        try:
            data = f.read(want)
        except OSError as exc:
            raise AudioError(str(exc)) from exc
        if len(data) < want:
            raise DataShrank(f"file ended {left - len(data)} bytes short of its header while read")
        left -= want
        mono = bytearray(want // info.channels)
        for j in range(bps):
            mono[j::bps] = data[offset + j :: frame]
        yield mono


def extract_channel(content: bytes, channel_index: int) -> bytes:
    """read_channel over a file image held in memory: the whole mono WAV."""
    return b"".join(read_channel(io.BytesIO(content), channel_index))


def build_wav(frames: bytes, sample_rate: int, channels: int, bits_per_sample: int) -> bytes:
    """Assemble a canonical 44-byte-header PCM WAV around raw frames."""
    info = WavInfo(sample_rate, channels, bits_per_sample, WAVE_FORMAT_PCM, len(frames), 44)
    return _header(info) + frames


def _header(info: WavInfo) -> bytes:
    """The canonical 44-byte PCM header of info's format and data size."""
    align = info.bytes_per_frame
    if info.sample_rate * align > 0xFFFFFFFF:
        raise AudioError(f"{info.sample_rate} Hz with {align}-byte frames overflows "
                         "the 32-bit byte rate of a WAV header")
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + info.data_bytes, b"WAVE", b"fmt ", 16,
        WAVE_FORMAT_PCM, info.channels, info.sample_rate, info.sample_rate * align,
        align, info.bits_per_sample, b"data", info.data_bytes,
    )

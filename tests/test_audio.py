import io
import os
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusphon import audio
from corpusphon.audio import (
    AudioError,
    ChannelOutOfRange,
    DataShrank,
    MissingDataChunk,
    MissingFmtChunk,
    NotRiff,
    UnsupportedFormatCode,
    build_wav,
    extract_channel,
    parse_wav_header,
    read_channel,
    read_wav_header,
    validate_for_mfa,
)


def pcm16(samples):
    return struct.pack(f"<{len(samples)}h", *samples)


class TestParseHeader:
    def test_mono_16k_duration(self):
        data = build_wav(b"\x00\x00" * 160000, 16000, 1, 16)
        info = parse_wav_header(data)
        assert info.sample_rate == 16000
        assert info.channels == 1
        assert info.bits_per_sample == 16
        assert info.format_code == 1
        assert info.data_bytes == 320000
        assert info.duration == pytest.approx(10.0, abs=1e-9)

    def test_stereo_44100(self):
        data = build_wav(pcm16([0, 0, 1, 1]), 44100, 2, 16)
        info = parse_wav_header(data)
        assert info.channels == 2 and info.sample_rate == 44100

    def test_not_riff(self):
        with pytest.raises(NotRiff):
            parse_wav_header(b"RIFX" + b"\x00" * 40)

    def test_missing_fmt(self):
        body = b"data" + struct.pack("<I", 0)
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(MissingFmtChunk):
            parse_wav_header(blob)

    def test_missing_data(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(MissingDataChunk):
            parse_wav_header(blob)

    def test_unsupported_format(self):
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)  # mu-law
        body = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 0)
        )
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(UnsupportedFormatCode):
            parse_wav_header(blob)

    def test_unknown_chunk_before_fmt_skipped(self):
        plain = build_wav(pcm16([1, 2, 3]), 16000, 1, 16)
        junk = b"LIST" + struct.pack("<I", 6) + b"junk!!"
        with_junk = (
            plain[:12] + junk + plain[12:]
        )
        with_junk = (
            b"RIFF"
            + struct.pack("<I", len(with_junk) - 8)
            + with_junk[8:]
        )
        a = parse_wav_header(plain)
        b = parse_wav_header(with_junk)
        assert (a.sample_rate, a.channels, a.bits_per_sample, a.data_bytes) == (
            b.sample_rate, b.channels, b.bits_per_sample, b.data_bytes
        )

    def test_extensible_resolves_to_pcm(self):
        sub = struct.pack("<H", 1) + bytes.fromhex(
            "000000001000800000aa00389b71"
        )
        fmt = (
            struct.pack("<HHIIHH", 0xFFFE, 1, 16000, 32000, 2, 16)
            + struct.pack("<HHI", 22, 16, 4)
            + sub
        )
        frames = pcm16([5, 6])
        body = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames
        )
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        info = parse_wav_header(blob)
        assert info.format_code == 1

    def test_float_accepted_for_inspection(self):
        frames = struct.pack("<2f", 0.5, -0.5)
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        body = (
            b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames
        )
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        info = parse_wav_header(blob)
        assert info.format_code == 3
        with pytest.raises(UnsupportedFormatCode):
            extract_channel(blob, 1)


_EXTENSIBLE_PCM_FMT = (
    struct.pack("<HHIIHH", 0xFFFE, 2, 16000, 64000, 4, 16)
    + struct.pack("<HHI", 22, 16, 3)
    + struct.pack("<H", 1) + bytes.fromhex("000000001000800000aa00389b71")
)


@st.composite
def mutated_wavs(draw):
    """A valid WAV with an odd-sized chunk inserted, a chunk size rewritten
    and/or the image truncated."""
    frames = draw(st.binary(max_size=40))
    if draw(st.booleans()):
        blob = build_wav(frames, 16000, draw(st.integers(1, 2)), 16)
    else:
        fmt = _EXTENSIBLE_PCM_FMT
        blob = (
            b"RIFF" + struct.pack("<I", 4 + 16 + len(fmt) + len(frames)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames
        )
    if draw(st.booleans()):
        size = draw(st.integers(0, 9))
        padded = draw(st.booleans())  # RIFF pads odd chunks; not every writer does
        chunk = b"odd " + struct.pack("<I", size) + b"x" * size
        if size % 2 and padded:
            chunk += b"\0"
        at = draw(st.sampled_from([12, len(blob) - len(frames) - 8]))
        blob = blob[:at] + chunk + blob[at:]
    if draw(st.booleans()):
        at = draw(st.integers(12, len(blob) - 4))
        size = draw(st.sampled_from([0, 1, 15, 16, 17, 39, 40, 41, 2**32 - 1]))
        blob = blob[:at] + struct.pack("<I", size) + blob[at + 4 :]
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


def _outcome(parse, arg):
    try:
        return parse(arg)
    except AudioError as exc:
        return type(exc)


class TestReadFromFile:
    @settings(max_examples=200, deadline=None)
    @given(mutated_wavs())
    @example(build_wav(b"\0\0", 16000, 1, 16)[:30])  # fmt cut short
    @example(build_wav(b"\0" * 9, 16000, 1, 16)[:44])  # no data body
    def test_file_read_matches_bytes_parse(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "mutated.wav"
        path.write_bytes(blob)
        with path.open("rb") as f:
            from_file = _outcome(read_wav_header, f)
        assert from_file == _outcome(parse_wav_header, blob)

    def test_multi_megabyte_wav_reads_only_its_header(self, tmp_path):
        class CountingFile:
            def __init__(self, f):
                self.f, self.bytes_read = f, 0

            def read(self, n=-1):
                data = self.f.read(n)
                self.bytes_read += len(data)
                return data

            def seek(self, *args):
                return self.f.seek(*args)

        frames = b"\0\0" * 2_000_000
        plain = build_wav(frames, 16000, 2, 16)
        junk = b"LIST" + struct.pack("<I", 7) + b"comment\0"
        path = tmp_path / "big.wav"
        path.write_bytes(plain[:12] + junk + plain[12:])
        with path.open("rb") as f:
            counting = CountingFile(f)
            info = read_wav_header(counting)
        assert info.data_bytes == len(frames) and info.channels == 2
        assert counting.bytes_read < 4096


class TestValidate:
    def test_conforming(self):
        info = parse_wav_header(build_wav(b"\x00\x00", 16000, 1, 16))
        assert not validate_for_mfa(info).findings

    def test_two_errors(self):
        info = parse_wav_header(build_wav(pcm16([0, 0]), 44100, 2, 16))
        report = validate_for_mfa(info)
        assert len(report.errors) == 2

    def test_channel_only(self):
        info = parse_wav_header(build_wav(pcm16([0, 0]), 16000, 2, 16))
        report = validate_for_mfa(info)
        assert len(report.errors) == 1
        assert "channel" in report.errors[0].message


class TestExtractChannel:
    def test_stereo_second_channel(self):
        # interleaved ramp: left = 2k, right = 2k+1
        n = 500
        interleaved = []
        for k in range(n):
            interleaved += [2 * k, 2 * k + 1]
        data = build_wav(pcm16(interleaved), 16000, 2, 16)
        mono = extract_channel(data, 2)
        info = parse_wav_header(mono)
        assert info.channels == 1
        samples = struct.unpack(f"<{n}h", mono[info.data_offset:])
        assert list(samples) == [2 * k + 1 for k in range(n)]

    def test_mono_identity(self):
        data = build_wav(pcm16([3, 1, 4, 1, 5]), 16000, 1, 16)
        mono = extract_channel(data, 1)
        assert mono == data

    def test_out_of_range(self):
        data = build_wav(pcm16([0, 0]), 16000, 2, 16)
        with pytest.raises(ChannelOutOfRange):
            extract_channel(data, 3)

    def test_duration_preserved(self):
        n = 1600
        data = build_wav(pcm16([0] * (2 * n)), 16000, 2, 16)
        src = parse_wav_header(data)
        out = parse_wav_header(extract_channel(data, 1))
        assert out.duration == pytest.approx(src.duration, abs=1e-6)

    def test_24_bit(self):
        # three 24-bit frames of 2 channels; channel 2 samples are b,d,f
        frames = bytes(
            [1, 1, 1,  2, 2, 2,
             3, 3, 3,  4, 4, 4,
             5, 5, 5,  6, 6, 6]
        )
        data = build_wav(frames, 48000, 2, 24)
        mono = extract_channel(data, 2)
        info = parse_wav_header(mono)
        assert info.bits_per_sample == 24
        assert mono[info.data_offset:] == bytes([2, 2, 2, 4, 4, 4, 6, 6, 6])


def _reference_mono(blob, channel):
    """The whole-buffer deinterleave: the channel's sample of every whole frame."""
    info = parse_wav_header(blob)
    if info.format_code != 1:
        raise UnsupportedFormatCode("not integer PCM")
    if not 1 <= channel <= info.channels:
        raise ChannelOutOfRange("no such channel")
    # a sample takes whole bytes (the WAVE container rule): 1 to 8 bits take 1
    bps, frame = (info.bits_per_sample + 7) // 8, info.bytes_per_frame
    end = info.data_offset + info.data_bytes - info.data_bytes % frame
    data = blob[info.data_offset : end]
    at = (channel - 1) * bps
    samples = b"".join(data[i + at : i + at + bps] for i in range(0, len(data), frame))
    return build_wav(samples, info.sample_rate, 1, info.bits_per_sample)


class TestReadChannel:
    @settings(max_examples=300, deadline=None)
    @given(mutated_wavs(), st.integers(1, 3), st.integers(1, 5), st.integers(0, 3))
    @example(build_wav(pcm16(range(10)), 16000, 2, 16), 2, 2, 0)  # blocks of exactly 2 frames
    @example(build_wav(pcm16(range(10)), 16000, 2, 16), 1, 1, 3)  # a block of a frame and a bit
    @example(build_wav(b"", 16000, 1, 16), 1, 1, 0)  # no sample data
    @example(build_wav(b"\0\0", 16000, 2, 1), 1, 1, 0)  # a 1-bit sample takes a byte
    def test_blocks_join_to_the_whole_buffer_deinterleave(self, blob, channel, frames, extra):
        try:
            frame = parse_wav_header(blob).bytes_per_frame
        except AudioError:
            frame = 4
        block_bytes = frames * frame + extra  # rounded down to whole frames
        with mock.patch.object(audio, "BLOCK_BYTES", block_bytes):
            try:
                chunks = list(read_channel(io.BytesIO(blob), channel))
            except AudioError as exc:
                got = type(exc)
            else:
                got = b"".join(chunks)
        try:
            want = _reference_mono(blob, channel)
        except AudioError as exc:
            want = type(exc)
        assert got == want
        if isinstance(got, bytes):
            # the header, then blocks of whole frames of one size but the last
            block = max(1, block_bytes // frame) * 2  # 16-bit mono samples
            sizes = [len(c) for c in chunks]
            assert sizes[0] == 44 and all(n == block for n in sizes[1:-1])
            assert all(0 < n <= block for n in sizes[1:])
            assert extract_channel(blob, channel) == got

    def test_checks_the_header_before_returning(self):
        wav = build_wav(pcm16([0, 0]), 16000, 2, 16)
        with pytest.raises(ChannelOutOfRange):
            read_channel(io.BytesIO(wav), 3)
        with pytest.raises(NotRiff):
            read_channel(io.BytesIO(b"RIFX" + wav[4:]), 1)

    def test_file_that_shrinks_after_its_header_raises(self, tmp_path):
        path = tmp_path / "shrinks.wav"
        path.write_bytes(build_wav(pcm16(range(-20000, 20000)), 16000, 2, 16))
        with path.open("rb") as f, mock.patch.object(audio, "BLOCK_BYTES", 4096):
            chunks = read_channel(f, 2)
            os.truncate(path, 44 + 30000)
            with pytest.raises(DataShrank, match="ended 50000 bytes short"):
                list(chunks)

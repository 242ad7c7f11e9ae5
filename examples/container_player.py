"""Muxing and playing a track-based container file.

The paper's conclusion names its next step: "We are exploring this issue
by modelling a particular AV format in detail."  This example *is* that
exercise: author a Newscast composite, serialize it to a container file
(atoms: FTYP / MOOV / MDAT, media interleaved by presentation time),
then play it back two ways —

1. parse the container back into a composite and check fidelity;
2. stream it with the :class:`ContainerDemuxer`: one sequential pass
   over the bytes drives a synchronized four-track presentation, which
   is exactly why real formats interleave.

Run:  python examples/container_player.py
"""

import pathlib

from repro.activities import ActivityGraph
from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
from repro.codecs import JPEGCodec, MuLawCodec
from repro.container import ContainerDemuxer, read_composite, write_composite
from repro.sim import Simulator
from repro.synth import NEWSCAST_CLIP_SPEC, newscast_clip
from repro.temporal import TemporalComposite

OUTPUT = pathlib.Path(__file__).parent / "output"


def author() -> TemporalComposite:
    clip = newscast_clip(video_frames=30, audio_seconds=1.0)
    # Store the video track and the English track compressed inside the
    # container; the demuxer decodes the audio blocks inline.
    values = {name: clip.value(name) for name in clip.track_names}
    values["videoTrack"] = JPEGCodec(80).encode_value(values["videoTrack"])
    values["englishTrack"] = MuLawCodec().encode_value(values["englishTrack"])
    return TemporalComposite(NEWSCAST_CLIP_SPEC, values)


def main() -> None:
    OUTPUT.mkdir(exist_ok=True)
    clip = author()
    data = write_composite(clip)
    path = OUTPUT / "newscast.avdb"
    path.write_bytes(data)
    video = clip.value("videoTrack")
    voice = clip.value("englishTrack")
    print(f"muxed 4 tracks into {path} ({len(data):,} bytes; video stored "
          f"as {video.media_type.name}, {video.compression_ratio():.1f}x, "
          f"English audio as {voice.media_type.name})")

    # 1. Parse back and verify fidelity.
    restored = read_composite(path.read_bytes())
    assert restored.value("subtitleTrack").texts() == \
        clip.value("subtitleTrack").texts()
    assert restored.value("videoTrack").chunks == video.chunks
    assert restored.value("englishTrack").blocks == voice.blocks
    print("demux-to-values: tracks parse back bit-exact")

    # 2. Stream it: one sequential scan, four synchronized sinks.
    sim = Simulator()
    demuxer = ContainerDemuxer(sim, path.read_bytes(), name="player")
    graph = ActivityGraph(sim)
    graph.add(demuxer)
    from repro.activities.library import VideoDecoder
    decoder = graph.add(VideoDecoder(sim, video.codec, video.width,
                                     video.height, video.depth))
    window = graph.add(VideoWindow(sim, name="screen", keep_payloads=False))
    english = graph.add(Speaker(sim, name="english", keep_payloads=False))
    french = graph.add(Speaker(sim, name="french", keep_payloads=False))
    subtitles = graph.add(SubtitleWindow(sim, name="subtitles"))
    graph.connect(demuxer.port("videoTrack"), decoder.port("video_in"))
    graph.connect(decoder.port("video_out"), window.port("video_in"))
    graph.connect(demuxer.port("englishTrack"), english.port("audio_in"))
    graph.connect(demuxer.port("frenchTrack"), french.port("audio_in"))
    graph.connect(demuxer.port("subtitleTrack"), subtitles.port("text_in"))
    end = graph.run_to_completion()
    print(f"streamed playback: {window.elements_consumed} frames, "
          f"{english.elements_consumed} audio blocks, "
          f"{len(subtitles.texts())} subtitles in {end.seconds:.2f}s "
          f"of virtual time (clip duration {clip.duration.seconds:.2f}s)")
    print(f"video presentation jitter: {window.log.jitter() * 1000:.2f} ms")


if __name__ == "__main__":
    main()

"""Corpus phonetics toolkit.

Prepares and validates forced-aligner input files (Kaldi data directories,
pronunciation lexicons, FAVE transcripts, MFA-conformant TextGrids and audio),
converts aligner CTM output into Praat TextGrids, and implements the AutoVOT
window-preparation and VOT-measurement pipeline.
"""

__version__ = "0.1.0"

__all__ = [
    "audio",
    "cli",
    "ctm",
    "errors",
    "kaldi",
    "lexicon",
    "report",
    "rows",
    "textgrid",
    "transcripts",
    "vot",
]

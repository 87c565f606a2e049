"""`python -m corpusphon`: the same command line as the corpusphon script."""

from .cli import entry

entry()

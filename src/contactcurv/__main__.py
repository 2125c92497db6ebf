"""``python -m contactcurv``: the command-line interface of :mod:`contactcurv.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()

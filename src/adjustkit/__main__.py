"""``python -m adjustkit``: the command-line front end of :mod:`adjustkit.cli`."""

from .cli import main

if __name__ == "__main__":
    main()

"""``python -m gaussiso``: the same command line as the ``gaussiso`` script."""

from .cli import main

if __name__ == "__main__":
    main()

"""Command-line entry point: `python -m hopfzero analyze FILE ...`."""

from .frontend import main

if __name__ == "__main__":
    main()

"""Entry point of ``python -m linkrev``, the same command line as ``linkrev``."""

from .cli import console_main

if __name__ == "__main__":
    console_main()

"""Entry point of `python -m maxoid`."""

from .cli import main

if __name__ == "__main__":
    main()

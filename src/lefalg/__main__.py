"""`python -m lefalg ...` runs the `lefalg` command line."""

from .cli import main

if __name__ == "__main__":
    main()

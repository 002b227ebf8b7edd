"""`python -m nilcone ...` runs the command-line interface of nilcone.cli."""

from .cli import main

if __name__ == "__main__":
    main()

"""`python -m skewframes`: the same entry point as the skewframes script."""
from .cli import main

if __name__ == "__main__":
    main()

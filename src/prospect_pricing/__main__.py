"""``python -m prospect_pricing``: the ``prospect-pricing`` command."""

from .cli import main

if __name__ == "__main__":
    main()

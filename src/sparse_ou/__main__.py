"""``python -m sparse_ou``: the ``sparse-ou`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()

"""``python -m treecut``: the same command line as the ``treecut`` script."""

from .cli import main

main()

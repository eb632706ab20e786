"""``python -m imbnode``: the ``imbnode`` command, from a checkout or an install."""
from .cli import main

raise SystemExit(main())

"""`python -m specbound`: the command-line front end of `specbound.cli`."""

from .cli import main

raise SystemExit(main())

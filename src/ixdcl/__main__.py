"""`python -m ixdcl`: the command line of `ixdcl.cli`."""
from .cli import main

raise SystemExit(main())

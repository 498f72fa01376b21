import sys

from benchmarks.e2e.main import main

sys.exit(main())

"""One cold ``graphnorm atoms --n N --cumulative`` call in a fresh interpreter.

Usage: python3 perfbench/atoms_child.py N TABLE [SPANS]

The census table is written to TABLE.  With SPANS, the call runs under the
tracer and its spans are written there for the parent to merge.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    import graphnorm.cli

    cli_args = ["atoms", "--n", argv[0], "--cumulative", "--output", argv[1]]
    if len(argv) < 3:
        return graphnorm.cli.main(cli_args)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("cli.main"):
            code = graphnorm.cli.main(cli_args)
    finally:
        tracer.uninstall()
    tracer.dump(argv[2])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Process entry point: `python -m symbidisc` and the `symbidisc` console script call run()."""

import gc

from .cli import main


def run() -> int:
    code = main()
    # the exit's full collections then skip every live object, ~6 ms of a scalar command;
    # the process frees any cycle left. Not in cli.main, which also runs in process.
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())

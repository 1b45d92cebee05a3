"""Set-up time of one workload in a fresh interpreter.

Prints the seconds from just before `import mesoc` until the first call of
the workload's entry point on a tiny input has returned. Nothing before
the timer imports numpy or mesoc, so their import cost is included.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
"""

import io
import sys
import time
from contextlib import redirect_stdout

# tiny inputs, shared with the workloads' own warm-up
TINY_Z = (0.3, -1.7, 2.2)
TINY_W = (0.9, -0.4)
TINY_RETURNS = ((0.5, 0.0), (0.0, 0.25), (0.25, 0.5))
TINY_C0 = 1.0


def tiny_cli_argv() -> list[str]:
    point = ",".join(repr(v) for v in TINY_Z + TINY_W)
    return ["project", "--p", str(len(TINY_Z)), "--q", str(len(TINY_W)), "--inline", point]


def first_call(workload: str) -> None:
    import mesoc

    if workload in ("proj-small", "proj-large"):
        mesoc.project_mesoc(TINY_Z, TINY_W)
    elif workload == "cli-project":
        import mesoc.cli

        with redirect_stdout(io.StringIO()):
            code = mesoc.cli.main(tiny_cli_argv())
        if code != 0:
            raise SystemExit(f"tiny CLI call exited {code}")
    elif workload == "portfolio":
        mesoc.refine_jstar(mesoc.load_scenarios(TINY_RETURNS), TINY_C0)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    start = time.perf_counter()
    first_call(sys.argv[1])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()

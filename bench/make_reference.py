"""Regenerate ``reference/search.json``, the expected CLI output of ``search``.

    python3 bench/make_reference.py

Only for a deliberate change of the expected answers (a new bundled query, or
a changed output format): the file is the gate that every later version of
the program is held to, so review its diff by hand.
"""

from __future__ import annotations

import importlib
import json
import os

import run
import workloads


def main() -> None:
    os.chdir(run.ROOT)
    cli = importlib.import_module(run.import_package().__name__ + ".cli")
    entries = []
    for argv in workloads.bundled_argvs():
        code, stdout = workloads.run_cli(cli, argv)
        entries.append({"argv": list(argv), "exit": code, "stdout": stdout})
    workloads.SEARCH_REFERENCE.parent.mkdir(exist_ok=True)
    workloads.SEARCH_REFERENCE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} references to {workloads.SEARCH_REFERENCE}")


if __name__ == "__main__":
    main()

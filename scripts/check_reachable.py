#!/usr/bin/env python3
"""List library headers that no shipped program reaches.

    scripts/check_reachable.py

Roots are the programs the repository runs: bench/*.cpp (except
bench_micro.cpp, whose cases only time primitives), examples/*.cpp and
mcssbench/src/*. From them the script follows every `#include "..."`
transitively, and from each reached header also the .cpp beside it
(the header's implementation, whose own includes are reached too).
src/mcss.hpp, the umbrella header, is never followed: including it
would make everything reachable.

Quoted includes resolve against the including file's directory first,
then against src/, as the compiler's include path does.

Exit status 0 when every src/**/*.hpp is reached. Otherwise the script
prints each unreached header, relative to src/, and exits 1.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UMBRELLA = SRC / "mcss.hpp"
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def roots():
    files = [p for p in sorted((ROOT / "bench").glob("*.cpp"))
             if p.name != "bench_micro.cpp"]
    files += sorted((ROOT / "examples").glob("*.cpp"))
    files += sorted(p for p in (ROOT / "mcssbench" / "src").iterdir()
                    if p.is_file())
    return files


def resolve(name, including):
    for base in (including.parent, SRC):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_files():
    seen = set()
    stack = list(roots())
    while stack:
        path = stack.pop()
        if path in seen or path == UMBRELLA:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text(errors="replace")):
            target = resolve(name, path)
            if target is not None:
                stack.append(target)
        if path.suffix == ".hpp":
            impl = path.with_suffix(".cpp")
            if impl.is_file():
                stack.append(impl)
    return seen


def main():
    reached = reached_files()
    unreached = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.hpp")
                       if p != UMBRELLA and p.resolve() not in reached)
    for name in unreached:
        print(name)
    if unreached:
        print(f"check_reachable: {len(unreached)} header(s) under src/ "
              "reached by no bench, example or mcssbench source",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

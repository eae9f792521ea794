#!/usr/bin/env python3
"""Summarise the gcov line coverage of src/ after a --coverage test run.

Usage, from the repository root:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -j
    python3 tools/coverage_summary.py build-cov

Runs gcov in JSON mode over every .gcda file under the build tree and
merges the line counts of each src/ file across translation units: a
header line counts as executed when any unit executed it. Prints the
executed and total line counts, the percentage, and the files with the
most unexecuted lines. It reports only; the exit status is 0 whatever
the percentage, and non-zero only when there is nothing to report.

Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys

# Files listed, most unexecuted lines first.
TOP = 10


def gcov_documents(gcda_files):
    """Yield gcov's JSON document for each .gcda file."""
    decoder = json.JSONDecoder()
    for gcda in gcda_files:
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout",
             "--object-directory", os.path.dirname(gcda), gcda],
            check=True, capture_output=True, text=True).stdout
        pos = 0
        while True:
            while pos < len(out) and out[pos].isspace():
                pos += 1
            if pos == len(out):
                break
            doc, pos = decoder.raw_decode(out, pos)
            yield doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="a --coverage build tree whose "
                    "tests have run")
    args = ap.parse_args()

    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
        "src") + os.sep
    gcda_files = sorted(
        os.path.join(d, f)
        for d, _, files in os.walk(args.build_dir)
        for f in files if f.endswith(".gcda"))

    # src file -> {line number: executed in some unit}
    lines = {}
    for doc in gcov_documents(gcda_files):
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src):
                continue
            seen = lines.setdefault(path[len(src):], {})
            for line in entry["lines"]:
                n = line["line_number"]
                seen[n] = seen.get(n, False) or line["count"] > 0

    total = sum(len(v) for v in lines.values())
    if total == 0:
        sys.exit("no src/ coverage data under " + args.build_dir)
    executed = sum(sum(v.values()) for v in lines.values())
    print(f"src/ lines executed: {executed} of {total} "
          f"({100.0 * executed / total:.1f}%) in {len(lines)} files")
    missed = sorted(((len(v) - sum(v.values()), f)
                     for f, v in lines.items()), reverse=True)
    for count, f in missed[:TOP]:
        if count:
            print(f"  {count:5d} unexecuted  src/{f}")


if __name__ == "__main__":
    main()

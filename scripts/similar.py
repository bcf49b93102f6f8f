#!/usr/bin/env python3
"""Near-verbatim function bodies within one crate: the pairs a simplicity
round reads first.

    scripts/similar.py [--min-statements 12] [--ratio 0.55] [crate ...]

For every `fn` on a non-test line of crates/*/src and src/ (a file is cut at
its first `#[cfg(test)]`), the body is split into statements — its lines,
less comments and lines that are only closing punctuation — and every two
bodies of one crate with at least `--min-statements` statements each are
compared with difflib's SequenceMatcher over those statement lists. Prints
`ratio crate a (file:line, n) ~ b (file:line, n)` for each pair above
`--ratio`, highest first. Informational: exits 0. A pair is a question, not
a verdict: CONTRIBUTING says what answers it (the property of the input that
selects the copy, or the test that uses it as reference).
"""
import argparse
import difflib
import itertools
import pathlib
import re

FN = re.compile(r"^\s*(?:pub(?:\([a-z]+\))?\s+)?(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
NOISE = re.compile(r"^[\s\])};,]*$")


def bodies(path):
    """(name, line, statements) for every fn above the file's test module."""
    lines = path.read_text().splitlines()
    for cut, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            lines = lines[:cut]
            break
    i = 0
    while i < len(lines):
        found = FN.match(lines[i])
        if not found:
            i += 1
            continue
        depth, start, j, opened = 0, i, i, False
        while j < len(lines):
            code = lines[j].split("//")[0]
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if opened and depth <= 0 or not opened and code.rstrip().endswith(";"):
                break
            j += 1
        body = [l.strip() for l in lines[start + 1 : j]]
        body = [l for l in body if not l.startswith("//") and not NOISE.match(l)]
        yield found.group(1), start + 1, body
        # Nested fns are part of their parent's body, and also read alone.
        i += 1


def main():
    args = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    args.add_argument("--min-statements", type=int, default=12)
    args.add_argument("--ratio", type=float, default=0.55)
    args.add_argument("crates", nargs="*", help="crate names (default: all, and the root package)")
    args = args.parse_args()
    roots = {p.parent.name: p for p in sorted(pathlib.Path("crates").glob("*/src"))}
    roots["lightwave"] = pathlib.Path("src")
    pairs = []
    for crate, root in roots.items():
        if args.crates and crate not in args.crates:
            continue
        fns = [
            (name, f"{path}:{line}", body)
            for path in sorted(root.rglob("*.rs"))
            for name, line, body in bodies(path)
            if len(body) >= args.min_statements
        ]
        for (a, at_a, body_a), (b, at_b, body_b) in itertools.combinations(fns, 2):
            ratio = difflib.SequenceMatcher(None, body_a, body_b, autojunk=False).ratio()
            if ratio > args.ratio:
                pairs.append((ratio, crate, f"{a} ({at_a}, {len(body_a)})", f"{b} ({at_b}, {len(body_b)})"))
    for ratio, crate, a, b in sorted(pairs, reverse=True):
        print(f"{ratio:.2f} {crate:<13} {a} ~ {b}")
    print(f"{len(pairs)} pair(s) over {args.ratio} with >= {args.min_statements} statements each")


if __name__ == "__main__":
    main()

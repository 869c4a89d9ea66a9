#!/usr/bin/env python3
"""Check that a commit keeps CHANGES.md an append-only ledger.

Usage: python3 tools/check_changes.py [REV]     (REV defaults to HEAD)

CHANGES.md at REV is compared with CHANGES.md at REV's first parent:

- When REV's subject begins "PR N:", REV must add a line holding a
  "**PR N" entry (N not followed by another digit).
- Every line of the parent's CHANGES.md must still be there, byte for
  byte and in the same order. New lines may go anywhere. The one edit
  allowed to an old line is its leading "FOUND:" (after the "- "
  bullet, if any) turning into "MENDED:".

Exits 0 when both hold and 1 naming each violation otherwise. A root
commit, or a parent without CHANGES.md, passes the second check.
"""

import argparse
import re
import subprocess
import sys

LEDGER = "CHANGES.md"


def git(*args):
    r = subprocess.run(["git", *args], capture_output=True, text=True)
    return r.returncode, r.stdout


def ledger_at(rev):
    """The lines of CHANGES.md at @p rev, or None if it has none."""
    code, out = git("show", f"{rev}:{LEDGER}")
    return out.split("\n") if code == 0 else None


def mended(line):
    """@p line with its leading FOUND: turned into MENDED:, or None."""
    m = re.match(r"(- )?FOUND:", line)
    if not m:
        return None
    return line[:m.end() - len("FOUND:")] + "MENDED:" + line[m.end():]


def missing_lines(old, new):
    """Indices of @p old's lines that @p new does not keep in order.

    Greedy subsequence matching: each old line takes the first later
    line of @p new equal to it or to its mended() form.
    """
    missing = []
    j = 0
    for i, line in enumerate(old):
        allowed = {line, mended(line)}
        k = j
        while k < len(new) and new[k] not in allowed:
            k += 1
        if k == len(new):
            missing.append(i)
        else:
            j = k + 1
    return missing


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", nargs="?", default="HEAD",
                   help="the commit to check (default HEAD)")
    rev = p.parse_args().rev
    code, subject = git("log", "-1", "--format=%s", rev)
    if code != 0:
        sys.exit(f"check_changes: no commit '{rev}'")
    subject = subject.strip()
    new = ledger_at(rev) or []
    has_parent = git("rev-parse", "--verify", "--quiet", f"{rev}^")[0] == 0
    old = ledger_at(f"{rev}^") if has_parent else None

    errors = []
    m = re.match(r"PR (\d+):", subject)
    if m:
        entry = re.compile(r"\*\*PR " + m.group(1) + r"(?!\d)")
        old_set = set(old or [])
        if not any(entry.search(line) and line not in old_set
                   for line in new):
            errors.append(f"'{subject[:60]}' adds no '**PR {m.group(1)}' "
                          f"entry to {LEDGER}")
    if old is not None:
        for i in missing_lines(old, new):
            where = "moved" if old[i] in new else "removed or edited"
            errors.append(f"{LEDGER} line {i + 1} of the parent is "
                          f"{where}: {old[i][:80]!r}")

    for e in errors:
        print(f"check_changes: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_changes: ok: {rev} keeps {LEDGER} append-only"
          + (f" and adds its PR {m.group(1)} entry" if m else ""))


if __name__ == "__main__":
    main()

"""Which fields of two holobraid JSON reports differ, and by how much.

    python tests/report_diff.py OLD.json NEW.json

The top-level generated_at is ignored.  List indices (the trials, complex
pairs) are folded to *, so each line is one field: how many of its values
differ, the largest absolute change and the largest change relative to
the old value.  A value of another type, or a key on one side only, is
printed with its full path; where one field has several such, they fold
to one line with their count and the first as an example.  An empty list
or dict is a value of its own, so a key that holds one on one side only
is listed too.  Exits 0
when the reports are equal apart from generated_at, 1 otherwise (also
when its reader closes the pipe early), and 2 on wrong arguments.
"""
import json
import math
import os
import sys


def leaves(node, path=()):
    """(path, value) of every leaf, as report_diff compares them.  An empty
    list or dict is a leaf of its own, so that it cannot go missing."""
    if isinstance(node, (dict, list)) and not node:
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            if key == "generated_at" and not path:
                continue
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path, node


def field(path):
    return ".".join("*" if isinstance(k, int) else k for k in path)


def diff(old, new):
    """({field: [count, max abs change, max relative change]},
    {field: [lines of its other differences]})."""
    a, b = dict(leaves(old)), dict(leaves(new))
    moved, other = {}, {}
    for path in sorted(a.keys() | b.keys(), key=lambda p: tuple(map(str, p))):
        x, y = a.get(path, "<absent>"), b.get(path, "<absent>")
        if x == y or (isinstance(x, float) and isinstance(y, float)
                      and math.isnan(x) and math.isnan(y)):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numbers:
            line = f"{'.'.join(map(str, path))}: {x!r} -> {y!r}"
            other.setdefault(field(path), []).append(line)
            continue
        change = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
        rel = change / abs(x) if x else math.inf
        slot = moved.setdefault(field(path), [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] = max(slot[1], change)
        slot[2] = max(slot[2], rel)
    return moved, other


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0]) as f_old, open(argv[1]) as f_new:
        moved, other = diff(json.load(f_old), json.load(f_new))
    try:
        for name, (count, change, rel) in moved.items():
            print(f"{name}: {count} moved, max abs {change:.3g}, max rel {rel:.3g}")
        for name, lines in other.items():
            print(lines[0] if len(lines) == 1 else f"{name}: {len(lines)} differ, e.g. {lines[0]}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (| head): keep the exit code, and
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if moved or other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Checks that relative links in Markdown files resolve.

Usage: check_markdown_links.py [--mentions DOC GLOB]...
                               [--glossary DOC SRC[#stats]]... FILE [FILE...]

For every inline link or image `[text](target)`:
  - http(s)/mailto targets are skipped (no network in CI);
  - `path#anchor` targets must name an existing file AND a heading in it
    whose GitHub-style slug matches the anchor;
  - bare `#anchor` targets are checked against the current file's headings;
  - plain paths must exist relative to the linking file.

`--mentions DOC GLOB` additionally requires every file matching GLOB
(resolved from the current directory) to be mentioned by basename somewhere
in DOC — this is how CI keeps docs/benchmarks.md covering every
bench/bench_*.cpp binary: adding a bench without documenting its paper
figure fails the docs job.

`--glossary DOC SRC` requires every string literal in SRC's `k...Names`
array initializers (kPhaseNames, ...) and every family name in SRC's
series table (the `k...Table = {{ ... }};` initializer whose rows start
`{<metric>, "<stats token>", "<family>", ...}`) to appear in DOC — this
keeps docs/observability.md's phase glossary in sync with
src/obs/profiler.cpp and its metric glossary in sync with
src/obs/metrics.cpp: renaming or adding a name without documenting it
fails the docs job.

`--glossary DOC SRC#stats` checks the table's other column: DOC's `stats`
reply grammar (the production line starting with the quoted word "stats"
and its quoted-word continuation lines) must list exactly the table's
`stats` tokens, in table order.

Exit status: 0 when every link resolves and every mention is present,
1 otherwise.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, punctuation dropped."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchors_of(path: Path) -> set:
    text = CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in HEADING.finditer(text)}


def check_file(md: Path) -> list:
    errors = []
    text = CODE_FENCE.sub("", md.read_text(encoding="utf-8"))
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = md if not path_part else (md.parent / path_part).resolve()
        if not dest.exists():
            errors.append(f"{md}: broken link -> {target} (no such file)")
            continue
        if anchor and dest.suffix.lower() in (".md", ".markdown"):
            if github_slug(anchor) not in anchors_of(dest):
                errors.append(f"{md}: broken anchor -> {target}")
    return errors


def check_mentions(doc: Path, glob: str) -> list:
    """Every file matching `glob` must appear (by basename) in `doc`."""
    if not doc.exists():
        return [f"{doc}: file not found (--mentions)"]
    matches = sorted(Path(".").glob(glob))
    if not matches:
        return [f"--mentions: no files match '{glob}' (stale check?)"]
    text = doc.read_text(encoding="utf-8")
    errors = []
    for path in matches:
        # Accept a mention of the file name with or without its suffix
        # ("bench_fig1_stream.cpp" or the binary name "bench_fig1_stream").
        if path.name not in text and path.stem not in text:
            errors.append(f"{doc}: does not mention {path} (from '{glob}')")
    return errors


TABLE_ROW_START = re.compile(r"\{\s*(?:\w+::)?k\w+\s*,")
TABLE_ROW = re.compile(
    r'\{\s*(?:\w+::)?k\w+\s*,\s*"([^"]*)"\s*,\s*"([^"]*)"\s*,')


def series_table(code: str, src: Path):
    """(rows, errors) of the series table in `code`: rows are (stats token,
    family) pairs in table order, "" where the series has none."""
    bodies = re.findall(r"k\w+Table\s*=\s*\{\{(.*?)\}\};", code, re.DOTALL)
    if not bodies:
        return [], []
    rows = [row for body in bodies for row in TABLE_ROW.findall(body)]
    starts = sum(len(TABLE_ROW_START.findall(body)) for body in bodies)
    if not rows or len(rows) != starts:
        return rows, [f"{src}: {starts - len(rows)} of {starts} series table "
                      "rows do not parse as {metric, \"token\", \"family\", "
                      "...} (--glossary)"]
    return rows, []


def stats_grammar(text: str) -> list:
    """The quoted words of the `stats` reply production: the line starting
    with "stats" plus its continuation lines of quoted words."""
    words = []
    for line in text.splitlines():
        stripped = line.strip()
        if not words and stripped.startswith('"stats" '):
            words = re.findall(r'"([^"]+)"', stripped)
        elif words and stripped.startswith('"'):
            words += re.findall(r'"([^"]+)"', stripped)
        elif words:
            break
    return words[1:]


def check_glossary(doc: Path, spec: str) -> list:
    """Every string literal in the `k...Names` array initializers and every
    family name of the series table in SRC must appear in `doc`; with
    SRC#stats, `doc`'s `stats` grammar must list the table's tokens in
    order — the documented glossary may not drift from the code."""
    path, _, column = spec.partition("#")
    src = Path(path)
    if column not in ("", "stats"):
        return [f"--glossary: unknown column '#{column}' (only #stats)"]
    if not doc.exists():
        return [f"{doc}: file not found (--glossary)"]
    if not src.exists():
        return [f"{src}: file not found (--glossary)"]
    code = src.read_text(encoding="utf-8")
    text = doc.read_text(encoding="utf-8")
    rows, errors = series_table(code, src)
    if errors:
        return errors
    if column == "stats":
        tokens = [token for token, _ in rows if token]
        if not tokens:
            return [f"{src}: no series table with stats tokens (--glossary)"]
        documented = stats_grammar(text)
        if documented == tokens:
            return []
        missing = [t for t in tokens if t not in documented]
        unknown = [t for t in documented if t not in tokens]
        if missing or unknown:
            return [f"{doc}: stats grammar misses {missing} and lists "
                    f"unknown {unknown} (table in {src})"]
        at = next((i for i, (d, t) in enumerate(zip(documented, tokens))
                   if d != t), None)
        if at is None:
            return [f"{doc}: stats grammar lists {len(documented)} tokens, "
                    f"the table in {src} {len(tokens)} (a token repeats)"]
        return [f"{doc}: stats grammar has '{documented[at]}' where the "
                f"table in {src} has '{tokens[at]}' (token order differs)"]
    # Match the `kFooNames = { ... }` declarations only — a later
    # `kFooNames[i]` use must not swallow unrelated code as "names".
    initializers = re.findall(r"k\w+Names\s*=\s*\{(.*?)\}", code, re.DOTALL)
    names = [name for body in initializers
             for name in re.findall(r'"([^"]+)"', body)]
    names += [family for _, family in rows if family]
    if not names:
        return [f"{src}: no k...Names initializer or series table names "
                "found (--glossary)"]
    return [
        f"{doc}: glossary misses '{name}' (declared in {src})"
        for name in names
        if f"`{name}`" not in text and name not in text
    ]


def main() -> int:
    args = sys.argv[1:]
    mentions = []
    while "--mentions" in args:
        at = args.index("--mentions")
        if len(args) < at + 3:
            print(__doc__)
            return 1
        mentions.append((Path(args[at + 1]), args[at + 2]))
        del args[at : at + 3]
    glossaries = []
    while "--glossary" in args:
        at = args.index("--glossary")
        if len(args) < at + 3:
            print(__doc__)
            return 1
        glossaries.append((Path(args[at + 1]), args[at + 2]))
        del args[at : at + 3]
    if not args and not mentions and not glossaries:
        print(__doc__)
        return 1
    all_errors = []
    for name in args:
        md = Path(name)
        if not md.exists():
            all_errors.append(f"{md}: file not found")
            continue
        all_errors.extend(check_file(md))
    for doc, glob in mentions:
        all_errors.extend(check_mentions(doc, glob))
    for doc, src in glossaries:
        all_errors.extend(check_glossary(doc, src))
    for error in all_errors:
        print(error)
    if not all_errors:
        checked = len(args) + len(mentions) + len(glossaries)
        print(f"OK: {checked} checks, all links resolve and mentions present")
        return 0
    print(f"{len(all_errors)} problems")
    return 1


if __name__ == "__main__":
    sys.exit(main())

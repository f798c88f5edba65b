"""Docs CI: intra-repo markdown link check + run every example to completion.

Documentation drifts in two ways and this checker catches both:

* **dead links** — a doc references ``docs/SOMETHING.md`` or
  ``src/repro/module.py`` that was renamed or never existed.  Every
  relative link and inline file reference in every tracked ``*.md`` is
  resolved against the working tree; a miss fails the job.  External
  ``http(s)://`` links are *not* fetched — CI must not depend on the
  network — only their syntax is accepted.
* **rotten examples** — ``examples/*.py`` are executable documentation;
  each is run as a subprocess (``PYTHONPATH=src``) and must exit 0.

Usage (from the repo root)::

    python tools/check_docs.py              # links + examples
    python tools/check_docs.py --links-only
    python tools/check_docs.py --examples-only

Exit status 0 when everything holds, 1 otherwise, with one line per
failure.  ``tests/test_docs.py`` unit-tests the link extraction and
resolution helpers.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from typing import Iterable, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``[text](target)`` markdown links, excluding images' leading ``!``.
MARKDOWN_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked intra-repo file references like ``docs/ROLLUPS.md`` or
#: ``benchmarks/bench_replication.py`` — the dominant linking style in this
#: repo's docs.  Only multi-component paths with a known text/code suffix
#: are checked; bare module names and command lines are not paths.
FILE_REFERENCE = re.compile(
    r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+\.(?:md|py|toml|yml|json))`"
)

#: Directories whose markdown is checked.  ``related/`` and venvs are not
#: part of the documentation set.
DOC_ROOTS = ("", "docs", "benchmarks", "examples", "src", "tests", "tools")


def iter_markdown_files(root: str = REPO_ROOT) -> List[str]:
    """Every tracked ``*.md`` under the documentation roots, sorted."""
    found: List[str] = []
    for doc_root in DOC_ROOTS:
        base = os.path.join(root, doc_root) if doc_root else root
        if not os.path.isdir(base):
            continue
        if doc_root:
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = [d for d in dirnames if not d.startswith(".")]
                found.extend(
                    os.path.join(dirpath, name)
                    for name in filenames if name.endswith(".md")
                )
        else:
            found.extend(
                os.path.join(base, name)
                for name in os.listdir(base)
                if name.endswith(".md") and os.path.isfile(
                    os.path.join(base, name)
                )
            )
    return sorted(set(found))


def extract_targets(text: str) -> List[str]:
    """All link targets and backticked file references in a document."""
    targets = [match.group(1) for match in MARKDOWN_LINK.finditer(text)]
    targets.extend(
        match.group(1) for match in FILE_REFERENCE.finditer(text)
    )
    return targets


def resolve_target(doc_path: str, target: str,
                   root: str = REPO_ROOT) -> Tuple[bool, str]:
    """Check one link target; returns ``(ok, detail)``.

    Relative targets resolve against the document's directory first, then
    against the repo root (the style used by backticked references).
    Anchors (``#section``) are stripped; bare anchors and external URLs
    pass without a filesystem check.
    """
    if target.startswith(("http://", "https://", "mailto:")):
        return True, "external"
    path, _, _ = target.partition("#")
    if not path:
        return True, "bare anchor"
    candidates = [
        os.path.normpath(os.path.join(os.path.dirname(doc_path), path)),
        os.path.normpath(os.path.join(root, path)),
        # Module-path style: docs refer to ``repro/storage/atomic.py``
        # without the ``src/`` layout prefix, or package-relative to
        # ``query/engine.py``.
        os.path.normpath(os.path.join(root, "src", path)),
        os.path.normpath(os.path.join(root, "src", "repro", path)),
    ]
    for candidate in candidates:
        if os.path.exists(candidate):
            return True, candidate
    return False, f"no such file: {path}"


def check_links(root: str = REPO_ROOT) -> List[str]:
    """Every broken intra-repo reference, as ``doc: target`` lines."""
    failures: List[str] = []
    for doc in iter_markdown_files(root):
        with open(doc, encoding="utf-8") as handle:
            text = handle.read()
        rel_doc = os.path.relpath(doc, root)
        for target in extract_targets(text):
            ok, detail = resolve_target(doc, target, root)
            if not ok:
                failures.append(f"{rel_doc}: [{target}] -> {detail}")
    return failures


def iter_examples(root: str = REPO_ROOT) -> List[str]:
    directory = os.path.join(root, "examples")
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory) if name.endswith(".py")
    )


def run_examples(root: str = REPO_ROOT,
                 timeout: float = 300.0) -> List[str]:
    """Run each example as a subprocess; returns failure lines."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    failures: List[str] = []
    for example in iter_examples(root):
        rel = os.path.relpath(example, root)
        print(f"running {rel} ...", flush=True)
        try:
            completed = subprocess.run(
                [sys.executable, example],
                cwd=root, env=env, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
        except subprocess.TimeoutExpired:
            failures.append(f"{rel}: timed out after {timeout:.0f}s")
            continue
        if completed.returncode != 0:
            tail = completed.stdout.decode(errors="replace").splitlines()
            failures.append(
                f"{rel}: exit {completed.returncode}\n    "
                + "\n    ".join(tail[-12:])
            )
    return failures


def report(label: str, failures: Iterable[str]) -> bool:
    failures = list(failures)
    if failures:
        print(f"\n{label}: {len(failures)} failure(s)")
        for line in failures:
            print(f"  {line}")
        return False
    print(f"{label}: OK")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links-only", action="store_true",
                        help="skip running the examples")
    parser.add_argument("--examples-only", action="store_true",
                        help="skip the markdown link check")
    parser.add_argument("--example-timeout", type=float, default=300.0,
                        help="per-example wall-clock limit in seconds")
    args = parser.parse_args(argv)

    ok = True
    if not args.examples_only:
        docs = iter_markdown_files()
        print(f"checking links in {len(docs)} markdown files")
        ok = report("links", check_links()) and ok
    if not args.links_only:
        ok = report(
            "examples", run_examples(timeout=args.example_timeout)
        ) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

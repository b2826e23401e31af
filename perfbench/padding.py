"""Seeded filler files that make the calc repo large without changing it
for the agent.

The bundled transcripts were recorded against the bare calc repo, and the
rollback script against the calc repo plus one large module. Their
request digests cover the rendered search tree, so a padded repo replays
them only if no filler file matches the recorded search keywords. Every
filler path and text is therefore checked against those keywords
(case-insensitive); a hit aborts set-up instead of producing a workload
that silently stops matching its transcript.
"""

from __future__ import annotations

import random
from typing import Iterator

# What the bundled transcripts search for, and what the rollback script
# searches for. Only the large module may match "planner".
FIXTURE_KEYWORDS = ("add", "calculator")
ROLLBACK_KEYWORDS = FIXTURE_KEYWORDS + ("planner",)

# Words from which every filler path and text is built. Words are always
# joined with a separator, so no forbidden keyword can form across a
# boundary; the guard below still checks the final text.
_WORDS = tuple(
    """alpha beta gamma delta omega sigma vector matrix tensor buffer
    stream socket kernel module parser lexer token scope frame stack heap
    queue graph node edge route shard block chunk page cache store index
    table column row field record entry value label tag mark flag state
    event signal timer clock epoch window slice range span limit bound
    offset cursor pointer handle owner group member role policy rule
    filter mapper reducer loader writer reader codec format schema layout
    render widget panel canvas pixel color shade light sound voice music
    river stone cloud storm ocean forest meadow valley summit harbor
    bridge tunnel engine piston rotor turbine sensor probe metric gauge
    ledger invoice order cart price coupon market trade quote asset bond
    yield merge split join fetch push pull sync spawn reap prune sweep
    scan probe seek tell open close lock unlock wait notify retry abort
    commit revert patch apply check verify trust audit trace debug""".split()
)
_EXTENSIONS = (".py", ".py", ".py", ".txt", ".md", ".json", ".cfg")
_MAX_DEPTH = 5
_FILES_PER_DIR = 12
_MIN_SIZE, _MAX_SIZE = 64, 64 * 1024
# Log-normal file sizes, scaled to average 2.5 KB.
_SIZE_MU, _SIZE_SIGMA = 7.3, 1.0
_MEAN_SIZE = 2500


class KeywordLeak(Exception):
    """Generated filler contains a keyword the recorded searches use."""


def check_clean(text: str, where: str, keywords: tuple[str, ...] = ROLLBACK_KEYWORDS) -> None:
    lowered = text.lower()
    for word in keywords:
        if word in lowered:
            raise KeywordLeak(f"{where} contains {word!r}")


for _word in _WORDS:
    check_clean(_word, "filler vocabulary")


def _ident(rng: random.Random, parts: int = 2) -> str:
    return "_".join(rng.choice(_WORDS) for _ in range(parts))


def _line_pool(rng: random.Random, python: bool) -> list[str]:
    lines = []
    for _ in range(2048):
        kind = rng.random()
        if not python:
            lines.append(" ".join(rng.choices(_WORDS, k=rng.randint(3, 12))) + "\n")
        elif kind < 0.15:
            lines.append(f"def {_ident(rng)}({_ident(rng, 1)}, {_ident(rng, 1)}):\n")
        elif kind < 0.2:
            lines.append(f"class {_ident(rng).title().replace('_', '')}:\n")
        elif kind < 0.3:
            lines.append(f"    # {' '.join(rng.choices(_WORDS, k=6))}\n")
        else:
            lines.append(
                f"    {_ident(rng)} = {_ident(rng, 1)}({_ident(rng, 1)}, "
                f"{rng.randint(0, 999)})\n"
            )
    return lines


def _directories(rng: random.Random, count: int) -> list[str]:
    """About one directory per ``_FILES_PER_DIR`` files, 1 to 5 deep."""
    dirs = ["pad"]
    while len(dirs) < max(1, count // _FILES_PER_DIR):
        parent = rng.choice(dirs)
        if parent.count("/") + 1 < _MAX_DEPTH:
            dirs.append(f"{parent}/{rng.choice(_WORDS)}_{len(dirs)}")
    return dirs


def padding_files(count: int, seed: int) -> Iterator[tuple[str, bytes]]:
    """Yield ``count`` filler files ``(path, content)`` under ``pad/``."""
    rng = random.Random(seed)
    pools = {True: _line_pool(rng, True), False: _line_pool(rng, False)}
    line_length = {kind: sum(map(len, pool)) / len(pool) for kind, pool in pools.items()}
    dirs = _directories(rng, count)
    sizes = [rng.lognormvariate(_SIZE_MU, _SIZE_SIGMA) for _ in range(count)]
    # Scale to a fixed total so the tree's size does not vary with the seed.
    scale = count * _MEAN_SIZE / sum(sizes) if sizes else 0.0
    for serial, raw in enumerate(sizes):
        name = f"{_ident(rng)}_{serial:05d}{rng.choice(_EXTENSIONS)}"
        rel = f"{rng.choice(dirs)}/{name}"
        check_clean(rel, "filler path")
        size = max(_MIN_SIZE, min(_MAX_SIZE, int(raw * scale)))
        python = rel.endswith(".py")
        text = "".join(rng.choices(pools[python], k=round(size / line_length[python]) or 1))
        check_clean(text, rel)
        yield rel, text.encode("utf-8")


# Symbols the rollback script views and edits in the large module.
LARGE_CLASS = "ShardPlanner"
LARGE_METHOD = "rebalance_window"
LARGE_FUNCTION = "merge_windows"
LARGE_PATH = "engine/planner_core.py"


def large_module(target_lines: int, seed: int) -> tuple[int, bytes]:
    """One outline-heavy module of at least ``target_lines`` lines, and
    the 1-based line of the ``return`` in ``merge_windows``, which the
    rollback script edits.

    Seeded filler classes and functions surround the fixed symbols the
    rollback script needs, so their line numbers move with the seed.
    """
    rng = random.Random(seed ^ 0x5EED)
    # One entry per line, so list positions are line numbers.
    out: list[str] = ['"""Generated planner module."""\n', "\n"]

    def filler_block() -> None:
        if rng.random() < 0.4:
            out.append(f"class {_ident(rng).title().replace('_', '')}:\n")
            for _ in range(rng.randint(2, 6)):
                out.append(f"    def {_ident(rng)}(self, {_ident(rng, 1)}):\n")
                for _ in range(rng.randint(2, 8)):
                    out.append(f"        {_ident(rng)} = {_ident(rng, 1)} * {rng.randint(1, 99)}\n")
                out.append(f"        return {_ident(rng, 1)}\n")
                out.append("\n")
        else:
            out.append(f"def {_ident(rng)}({_ident(rng, 1)}, {_ident(rng, 1)}):\n")
            for _ in range(rng.randint(3, 12)):
                out.append(f"    {_ident(rng)} = ({_ident(rng, 1)}, {rng.randint(1, 99)})\n")
            out.extend([f"    return {_ident(rng, 1)}\n", "\n", "\n"])

    anchor_at = target_lines // 2
    while len(out) < anchor_at:
        filler_block()
    out.extend(
        [
            f"class {LARGE_CLASS}:\n",
            f"    def {LARGE_METHOD}(self, window, limit):\n",
            "        kept = [span for span in window if span < limit]\n",
            "        return sorted(kept)\n",
            "\n",
            "\n",
            f"def {LARGE_FUNCTION}(left, right):\n",
            "    merged = list(left) + list(right)\n",
        ]
    )
    edit_line = len(out) + 1
    out.extend(["    return sorted(set(merged))\n", "\n", "\n"])
    while len(out) < target_lines:
        filler_block()

    text = "".join(out)
    check_clean(LARGE_PATH + text, LARGE_PATH, FIXTURE_KEYWORDS)
    return edit_line, text.encode("utf-8")

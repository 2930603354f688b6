"""The benchmark's three workloads: their inputs and the command they run.

Every workload's inputs come from its seed alone, and its file count
does not depend on the seed, so every round of a run attempts the same
number of operations.  File sizes and nesting depths are fixed
quantiles of each workload's distribution, so two seeds give the same
mix and differ only in the code written.
"""

from __future__ import annotations

import random
from dataclasses import replace

from gen import EXTENSIONS, JAVA, MODULA2, Profile, Source, generate

RUN_MIXED = "run-mixed"
PARSE_DENSE = "parse-comment-dense"
MEASURE_DEEP = "measure-deep-trees"

WHY = {
    RUN_MIXED: "full run over a project-like size mix; every layer works and large files set memory and tail latency",
    PARSE_DENSE: "tree-write side: long flat comment-dense bodies load scan, lex, parse, comment attachment and serialize",
    MEASURE_DEEP: "tree-read side: stored deeply nested trees load XML reload, validation and measure; nothing is parsed",
}

# run-mixed: many small files with a heavy tail, plus a few large ones.
# Sizes are fixed quantiles: (share of files, chars) points, interpolated.
# A plateau holds the 80th to 97th percentile, so that p90 does not hinge
# on one file.
MIXED_SMALL = 110
MIXED_SIZES = ((0.0, 500), (0.5, 1_000), (0.8, 3_000), (0.8, 4_500), (0.97, 4_800), (0.97, 9_000), (1.0, 40_000))
MIXED_LARGE_CHARS = (180_000, 220_000)
MIXED_CRLF_EVERY = 5  # every fifth file is written with "\r\n" line breaks
MIXED = Profile(target_chars=0, max_depth=2)

# parse-comment-dense: one long flat unit per file, most lines commented,
# with a plateau of sizes around p90 as in run-mixed.
DENSE_FILES = 112
DENSE_SIZES = ((0.0, 2_000), (0.7, 11_000), (0.7, 15_000), (0.99, 15_500), (0.99, 25_000), (1.0, 30_000))
DENSE = Profile(
    target_chars=0,
    max_depth=1,
    p_construct=0.05,
    p_trailing=0.55,
    p_line_comment=0.25,
    p_block_comment=0.08,
    single_unit=True,
)

# measure-deep-trees: one unit per file whose constructs nest 18 to 175 deep.
# Most trees are shallow; a plateau of equal depths holds the 80th to 97th
# percentile, so that p90 does not hinge on one file; three go deeper.
# Parsing Java hits the recursion limit between 240 and 300 levels and
# Modula-2 between 300 and 400, so the deepest stay well below both.
DEEP_FILES = 112
DEEP_DEPTHS = ((0.0, 18), (0.8, 28), (0.8, 54), (0.97, 57), (0.97, 100), (0.98, 100), (0.98, 160), (1.0, 180))
DEEP = Profile(
    target_chars=0,
    p_trailing=0.05,
    p_line_comment=0.03,
    p_block_comment=0.01,
    p_logical=0.35,
)

# Legal sources with a control character inside a comment.  Tree XML 1.0
# cannot carry the character, so `run` fails on them today; they do not
# depend on the seed and count as failed operations while that lasts.
CONTROL_CHARS = {JAVA: "\x0c", MODULA2: "\x07"}


def _stratified(rng: random.Random, n: int, quantile) -> list[tuple[int, str]]:
    """(value, language) at the middle of each of n equal-probability bands.

    The mix of sizes or depths, and which language each band gets, are
    part of the workload's design; the seed chooses the code written and
    the order of the files.
    """
    plan = [(quantile((i + 0.5) / n), _language(i)) for i in range(n)]
    rng.shuffle(plan)
    return plan


def _piecewise(points, u: float) -> float:
    """Linear interpolation between (u, value) points; steps where u repeats."""
    for (u0, v0), (u1, v1) in zip(points, points[1:]):
        if u0 <= u < u1:
            return v0 + (v1 - v0) * (u - u0) / (u1 - u0)
    return points[-1][1]


def _name(index: int, language: str, stem: str = "f") -> str:
    return f"{stem}{index:03d}{EXTENSIONS[language]}"


def _language(index: int) -> str:
    return JAVA if index % 2 == 0 else MODULA2


def control_sources() -> list[Source]:
    """Fixed files that `run` fails on while control characters break tree XML."""
    sources = []
    for index, (language, char) in enumerate(CONTROL_CHARS.items()):
        name = _name(index, language, "ctl")
        source = generate(language, name, f"control:{index}", Profile(target_chars=1_500))
        # same length, so the recorded offsets stay valid
        marker = f"{name}: generated"
        source.text = source.text.replace(marker, f"{name}:{char}generated", 1)
        sources.append(source)
    return sources


def corpus(workload: str, seed: int) -> list[Source]:
    """The files one round of the workload hands to the command."""
    rng = random.Random(f"{workload}:{seed}")
    sources = []
    if workload == RUN_MIXED:
        plan = _stratified(rng, MIXED_SMALL, lambda u: round(_piecewise(MIXED_SIZES, u)))
        plan += [(size, _language(i)) for i, size in enumerate(MIXED_LARGE_CHARS)]
        for index, (size, language) in enumerate(plan):
            profile = replace(MIXED, target_chars=size)
            source = generate(language, _name(index, language), f"{workload}:{seed}:{index}", profile)
            if index % MIXED_CRLF_EVERY == 0:
                source.newline = "\r\n"
            sources.append(source)
        sources += control_sources()
    elif workload == PARSE_DENSE:
        plan = _stratified(rng, DENSE_FILES, lambda u: round(_piecewise(DENSE_SIZES, u)))
        for index, (size, language) in enumerate(plan):
            profile = replace(DENSE, target_chars=size)
            sources.append(generate(language, _name(index, language), f"{workload}:{seed}:{index}", profile))
    elif workload == MEASURE_DEEP:
        plan = _stratified(rng, DEEP_FILES, lambda u: round(_piecewise(DEEP_DEPTHS, u)))
        for index, (depth, language) in enumerate(plan):
            profile = replace(DEEP, tower_depth=depth)
            sources.append(generate(language, _name(index, language), f"{workload}:{seed}:{index}", profile))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sources

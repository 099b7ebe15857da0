"""Output checks for every command the benchmark issues.

Each check recomputes what it compares against from bench_arith, never from
zdgspec. For each spectrum record (spectrum/analyze output, survey row):

* vertex_count is n - phi(n) - 1 and the multiplicities sum to it;
* sum m*lambda is the degree sum and sum m*lambda^2 is sum deg^2 + deg,
  both within MOMENT_RTOL relative (printed values carry 12 digits);
* eigenvalue 0 has multiplicity 1, since the graph is connected;
* delta and Delta are the smallest and largest class degree.

`verify` must print no FAIL or SKIP line and pass exactly the composites of
its window. A check returns None when the output is right, else a reason.
"""

from __future__ import annotations

import json

from bench_arith import class_degrees, composites, laplacian_moments, vertex_count

MOMENT_RTOL = 1e-9
EXPECTED_EXIT = 0

Pairs = list[tuple[float, int]]


def check_record(n: int, vcount: int, pairs: Pairs, delta: int, Delta: int) -> str | None:
    if vcount != vertex_count(n):
        return f"n={n}: vertex_count {vcount}, expected {vertex_count(n)}"
    if sum(m for _, m in pairs) != vcount:
        return f"n={n}: multiplicities sum to {sum(m for _, m in pairs)}, not {vcount}"
    first, second = laplacian_moments(n)
    got1 = sum(m * v for v, m in pairs)
    got2 = sum(m * v * v for v, m in pairs)
    if abs(got1 - first) > MOMENT_RTOL * max(1, first):
        return f"n={n}: sum m*lambda = {got1!r}, expected {first}"
    if abs(got2 - second) > MOMENT_RTOL * max(1, second):
        return f"n={n}: sum m*lambda^2 = {got2!r}, expected {second}"
    top = max(v for v, _ in pairs)
    zeros = sum(m for v, m in pairs if abs(v) <= MOMENT_RTOL * max(1.0, top))
    if zeros != 1:
        return f"n={n}: eigenvalue 0 has multiplicity {zeros}, expected 1"
    degs = [deg for _, deg in class_degrees(n)]
    if (delta, Delta) != (min(degs), max(degs)):
        return f"n={n}: delta/Delta {delta}/{Delta}, expected {min(degs)}/{max(degs)}"
    return None


def _compact_pairs(text: str, sep: str) -> Pairs:
    out = []
    for item in text.split(sep):
        value, mult = item.rsplit(":", 1)
        out.append((float(value), int(mult)))
    return out


def check_json_record(n: int, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 1:
        return f"n={n}: expected one JSON line, got {len(lines)}"
    rec = json.loads(lines[0])
    if rec["n"] != n:
        return f"record for n={rec['n']}, expected {n}"
    pairs = [(float(e["value"]), int(e["multiplicity"])) for e in rec["spectrum"]]
    return check_record(n, rec["vertex_count"], pairs, rec["delta"], rec["Delta"])


def check_text_record(n: int, out: str) -> str | None:
    fields = dict(line.split(" = ", 1) for line in out.splitlines())
    if int(fields["n"]) != n:
        return f"record for n={fields['n']}, expected {n}"
    return check_record(
        n,
        int(fields["vertex_count"]),
        _compact_pairs(fields["spectrum"], " "),
        int(fields["delta"]),
        int(fields["Delta"]),
    )


def check_survey_csv(lo: int, hi: int, out: str) -> str | None:
    header, *rows = out.splitlines()
    col = {name: i for i, name in enumerate(header.split(","))}
    want = composites(lo, hi)
    got = [int(r.split(",", 1)[0]) for r in rows]
    if got != want:
        return f"survey {lo} {hi}: rows for {len(got)} n, expected the {len(want)} composites"
    for row in rows:
        cells = row.split(",")
        n = int(cells[col["n"]])
        err = check_record(
            n,
            int(cells[col["vertex_count"]]),
            _compact_pairs(cells[col["spectrum"]], ";"),
            int(cells[col["delta"]]),
            int(cells[col["Delta"]]),
        )
        if err:
            return err
    return None


def check_verify(lo: int, hi: int, out: str) -> str | None:
    lines = out.splitlines()
    bad = [ln for ln in lines if ln.startswith(("FAIL", "SKIP"))]
    if bad:
        return f"verify {lo} {hi}: {bad[0]}"
    want = composites(lo, hi)
    passed = [int(ln.split()[1][2:]) for ln in lines if ln.startswith("PASS")]
    if passed != want:
        return f"verify {lo} {hi}: passed {len(passed)} n, expected the {len(want)} composites"
    summary = f"checked {len(want)}, passed {len(want)}, failed 0"
    if not lines or lines[-1] != summary:
        return f"verify {lo} {hi}: summary {lines[-1:]!r}, expected {summary!r}"
    return None


def _format(argv: list[str], default: str) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else default


def check_command(argv: list[str], rc: int | None, out: str) -> str | None:
    """None when the command exited as expected and its output checks."""
    if rc != EXPECTED_EXIT:
        return f"{' '.join(argv)}: exit code {rc}, expected {EXPECTED_EXIT}"
    cmd = argv[0]
    try:
        if cmd == "spectrum" and _format(argv, "json") == "json":
            return check_json_record(int(argv[1]), out)
        if cmd == "analyze" and _format(argv, "text") == "text":
            return check_text_record(int(argv[1]), out)
        if cmd == "survey" and _format(argv, "csv") == "csv":
            return check_survey_csv(int(argv[1]), int(argv[2]), out)
        if cmd == "verify":
            return check_verify(int(argv[1]), int(argv[2]), out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{' '.join(argv)}: unparsable output ({exc!r})"
    return f"{' '.join(argv)}: no check for this command"

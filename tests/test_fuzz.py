"""Seeded mutation fuzzing of evaluate's text inputs: score files and label tables.

Each mutant goes through ``cli.main`` in this process.  Whatever its
bytes, ``main`` must return an exit code from 0 to 3 and print at most
one ``error:`` line; an exception escaping ``main`` fails the test.  The
mutations come from the stdlib ``random`` with a fixed seed, so a failure
names a mutant that can be rebuilt.  The mutated score columns (ties,
signed zeros, subnormals, huge values) go straight into the curves.
"""

import itertools
import random

from comogphog.cli import main

IDS = [f"p{k}" for k in range(8)] + ["dé0", "dé1"]
# three families in two superfamilies, so both levels have both classes
LABELS = "sid\tsccs\n" + "".join(
    f"{sid}\ta.1.{k % 3 // 2 + 1}.{k % 3 + 1}\n" for k, sid in enumerate(IDS)
)
# scores on a coarse grid, so the base file already has ties
SCORES = "id_a,id_b,score\n" + "".join(
    f"{a},{b},{(k * 7) % 11 / 4}\n" for k, (a, b) in enumerate(itertools.combinations(IDS, 2))
)
# what a mutation may put in the last field: values the program must take,
# and values it must refuse
SCORE_VALUES = (
    [
        "0", "-0.0", "0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-320",
        "1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "1_0",
        "+.5", "0.25",
    ],
    ["nan", "inf", "-inf", "1e309", "0x10", "1.O", "", " ", "1,5"],
)
SCCS_VALUES = (
    ["a.1.1.1", "a.1.1.2", "a.1.2.3", "b.1.1.1", " a.1.1.1 ", "a.01.1.1"],
    ["a.1.1", "a.1.1.0", "a.1.1.x", "", "1.1.1.1", "a.1.1.1.1", "é.1.1.1"],
)
# what a mutation may insert anywhere in the text
JUNK = ["é", "\x00", "\r", "\n", ",", "\t", "#", ".", " ", "\ufeff", "a.1", "id_a,id_b,score"]
MUTANTS = 220


def _mutate_line(rng: random.Random, lines: list[str], values) -> None:
    """Rewrite a field of one line, or copy, drop or move one line."""
    k = rng.randrange(len(lines))
    sep = "," if "," in lines[k] else "\t"
    fields = lines[k].split(sep)
    op = rng.choices(["good", "bad", "id", "copy", "drop", "move"], [6, 1, 1, 2, 1, 1])[0]
    if op == "good":
        fields[-1] = rng.choice(values[0])
    elif op == "bad":
        fields[-1] = rng.choice(values[1])
    elif op == "id":
        fields[rng.randrange(len(fields))] = rng.choice(IDS + ["zz", "", "a.1.1.1"])
    elif op == "copy":
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif op == "drop":
        del lines[k]
    else:
        lines.append(lines.pop(k))
    if op in ("good", "bad", "id"):
        lines[k] = sep.join(fields)


def _mutant(rng: random.Random, text: str, values) -> bytes:
    """``text`` after one to four line, character or byte mutations."""
    for _ in range(rng.randint(1, 4)):
        op = rng.choices(["line", "insert", "cut", "truncate"], [12, 2, 1, 1])[0]
        at = rng.randrange(len(text) + 1)
        if op == "line" and text.strip():
            lines = text.splitlines()
            _mutate_line(rng, lines, values)
            text = "\n".join(lines) + "\n"
        elif op == "insert":
            text = text[:at] + rng.choice(JUNK) + text[at:]
        elif op == "cut":
            text = text[:at] + text[at + rng.randint(1, 20) :]
        elif op == "truncate":
            text = text[:at]
    data = bytearray(text.encode("utf-8"))
    if data and rng.random() < 0.05:
        # a byte that may leave the file invalid UTF-8
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def test_mutated_score_files_and_label_tables_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(2028)
    failures = []
    for n in range(2 * MUTANTS):
        scores, labels = SCORES.encode("utf-8"), LABELS.encode("utf-8")
        if n % 2:
            labels = _mutant(rng, LABELS, SCCS_VALUES)
        else:
            scores = _mutant(rng, SCORES, SCORE_VALUES)
        (tmp_path / "scores.csv").write_bytes(scores)
        (tmp_path / "labels.tsv").write_bytes(labels)
        argv = [
            "evaluate", str(tmp_path / "scores.csv"), str(tmp_path / f"out{n}"),
            "--labels", str(tmp_path / "labels.tsv"),
            "--polarity", rng.choice(["lower", "higher"]),
            "--level", rng.choice(["family", "superfamily"]),
            "--eval-bins", str(rng.choice([2, 3, 37, 200])),
        ]
        code = main(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if not (isinstance(code, int) and 0 <= code <= 3 and len(errors) <= 1):
            failures.append((n, code, errors, scores if n % 2 == 0 else labels))
    assert not failures, failures[:3]

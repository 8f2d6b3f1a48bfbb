"""Seeded job lists for the three benchmark workloads.

A workload is a set of input point files that set-up builds and a list
of units.  A unit is a list of jobs that run back to back; the units run
in a seed-shuffled order.  A job is one real CLI call,
``lowdisc.cli.main(argv)``, or one ``lowdisc.read_point_file`` call,
together with the check its output must pass and the key of the reference
the check compares against.

Placeholders in argv: ``@out`` is the unit's output file and ``@in:NAME``
is the input point file NAME built during set-up.

The seed moves the sizes that are free (point counts of dp-finite,
dp-sequence and davenport, and the free size of the dp-sequence scaling
grid) to one of ``BAND`` values a small step apart, sets the ``--seed`` of
the Lq job and of the char check, and shuffles the units.  Net sizes stay
fixed because a net has exactly b^m points.  Every size a seed can pick
has a reference in ``references.json`` (see ``make_references.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BAND = 8
WORKLOADS = ("construct", "discrepancy", "verify")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str  # pointfile | read | verify | discrepancy | scaling
    key: str  # reference key: argv without paths or seeds


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, tuple[str, ...]]  # name -> construct flags
    units: list[list[Job]]


def _key(argv, inputs) -> str:
    words, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word in ("--seed", "--out"):
            skip = True
        elif word.startswith("@in:"):
            words.append("[" + " ".join(inputs[word[4:]]) + "]")
        else:
            words.append(word)
    return " ".join(words)


def _job(argv, check, inputs=None) -> Job:
    argv = tuple(argv)
    return Job(argv, check, _key(argv, inputs or {}))


def _construct(pick, small, seed):
    flags = [
        ("--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "6" if small else "13"),
        ("--family", "dp-sequence", "--s", "2", "--N", pick(100, 4) if small else pick(3000, 8)),
        ("--family", "dp-finite", "--s", "3", "--N", pick(40, 2) if small else pick(1000, 2)),
        ("--family", "davenport", "--N", pick(40, 2) if small else pick(1500, 8)),
        ("--family", "faure", "--b", "5", "--m", "2" if small else "5", "--s", "3"),
    ]
    units = []
    for f in flags:
        build = _job(("construct",) + f + ("--out", "@out"), "pointfile")
        units.append([build, Job(("read", "@out"), "read", build.key)])
    return Workload({}, units)


def _discrepancy(pick, small, seed):
    inputs = {
        "net": ("--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "6" if small else "12"),
        "lq": ("--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "5" if small else "10"),
        "dav": ("--family", "davenport", "--N", pick(30, 2) if small else pick(1500, 4)),
        "fin": ("--family", "dp-finite", "--s", "3", "--N", pick(40, 2) if small else pick(2000, 4)),
    }
    seq_grid = ["15", "31", pick(40, 2)] if small else ["255", "511", "1023", "2047", pick(1500, 8)]
    argvs = [
        (("discrepancy", "@in:net"), "discrepancy"),
        (("discrepancy", "@in:dav"), "discrepancy"),
        (("discrepancy", "@in:fin"), "discrepancy"),
        (("discrepancy", "@in:lq", "--q", "4", "--samples", "256" if small else "16384",
          "--seed", str(seed)), "discrepancy"),
        (("scaling", "--family", "dp-net", "--alpha", "3", "--s", "2",
          "--m", "3:5" if small else "8:11"), "scaling"),
        (("scaling", "--family", "dp-sequence", "--s", "2", "--N", ",".join(seq_grid)), "scaling"),
    ]
    units = [[_job(argv + ("--out", "@out"), check, inputs)] for argv, check in argvs]
    return Workload(inputs, units)


def _verify(pick, small, seed):
    inputs = {"net": ("--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "5" if small else "9")}
    nets = [
        ("--family", "faure", "--b", "3" if small else "7", "--m", "2" if small else "3", "--s", "3"),
        ("--family", "chen-skriganov", "--b", "11", "--alpha", "2", "--m", "1", "--s", "3"),
        ("--family", "chen-skriganov", "--b", "5", "--alpha", "2", "--m", "1" if small else "2", "--s", "2"),
        ("--family", "dp-net", "--alpha", "2", "--s", "2", "--m", "2" if small else "6"),
        ("--family", "dp-net", "--alpha", "2", "--s", "3", "--m", "2" if small else "3"),
    ]
    argvs = [("verify", "all") + f + ("--seed", str(seed)) for f in nets]
    for f in [
        ("--family", "niederreiter", "--s", "3", "--m", "5" if small else "11"),
        ("--family", "faure", "--b", "5", "--m", "2" if small else "5", "--s", "3"),
    ]:
        argvs += [("verify", "t-value") + f, ("verify", "geometric") + f]
    argvs.append(("verify", "geometric", "@in:net"))
    units = [[_job(argv + ("--out", "@out"), "verify", inputs)] for argv in argvs]
    return Workload(inputs, units)


_FACTORIES = {"construct": _construct, "discrepancy": _discrepancy, "verify": _verify}


def build(name: str, seed: int, small: bool = False, choice: int | None = None,
          child: int = 0) -> Workload:
    """The workload's inputs and shuffled units for this seed.

    The sizes depend on the seed alone.  The order depends on the seed and
    the child's number, so the children of one run see different orders
    and order effects (heap fragmentation sets the peak RSS) average out
    in their median.  ``small`` selects the reduced sizes the benchmark's
    own tests use.  ``choice`` forces every free size to band position
    ``choice`` (used to enumerate the references).
    """
    rng = random.Random(seed)

    def pick(base: int, step: int) -> str:
        return str(base + step * (rng.randrange(BAND) if choice is None else choice))

    workload = _FACTORIES[name](pick, small, seed)
    random.Random(f"{seed}/{child}").shuffle(workload.units)
    return workload

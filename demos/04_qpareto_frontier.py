"""The dominated-by-at-most-q rule: a dial between strictness and coverage.

q = 0 keeps only alternatives nobody weakly dominates (the classical
efficient frontier); each +1 tolerates one more dominator, widening the
choice step by step until everything is in.
"""

from twostage import QParetoRule, parse_grade_table

TABLE = """
a b c d e f g h k l m
1 3 5 0 5 4 4 5 2 4 1
5 3 0 4 1 2 5 4 4 4 3
"""


def main():
    table = parse_grade_table(TABLE.strip() + "\n")
    print("grades (two criteria, eleven alternatives):")
    for lab in table.labels:
        col = table.column(lab)
        print(f"  {lab}: {tuple(int(v) for v in col)}")

    print("\nwidening the cutoff:")
    previous = frozenset()
    for q in range(0, 7):
        chosen = QParetoRule(q).choose(table)
        assert previous <= chosen, "the choice can only grow with q"
        new = "".join(sorted(chosen - previous))
        print(f"  q={q}:  {{{', '.join(sorted(chosen))}}}"
              + (f"   (+{new})" if new and previous else ""))
        previous = chosen

    print("\nthe rule reads any profile through its grade table too:")
    from twostage import Profile
    p = Profile([("a", "b", "c"), ("a", "b", "c"), ("b", "a", "c")])
    for q in (0, 1, 2):
        print(f"  q={q}:", sorted(QParetoRule(q).choose(p)))
    print("  (c sits below both a and b, so it only enters at q=2)")


if __name__ == "__main__":
    main()

"""Tour of the single-stage choice procedures on one small election.

Four criteria rank four alternatives.  The same ballots are read four ways —
as positional scores, as eliminations, as a majority digraph, and as pairwise
support counts — and the procedures disagree accordingly.
"""

from twostage import (
    Profile,
    borda_counts,
    first_place_counts,
    format_majority_matrix,
    majority_relation,
    make_procedure,
    threshold_order,
    grade_table,
)


def show(title, chosen):
    print(f"  {title:<28} {{{', '.join(sorted(chosen)) or ''}}}")


def main():
    p = Profile([
        ("a", "b", "c", "d"),
        ("b", "d", "a", "c"),
        ("c", "b", "d", "a"),
        ("a", "d", "b", "c"),
    ])
    print("ballots (best to worst):")
    for i in range(p.n):
        order = sorted(p.labels, key=lambda lab: p.rank_of(lab, i))
        print("  criterion", i + 1, ">", " ".join(order))

    print("\npositional counts:")
    print("  first places:", dict(sorted(first_place_counts(p).items())))
    print("  score totals:", dict(sorted(borda_counts(p).items())))

    print("\nscore- and elimination-driven procedures:")
    for spec in (1, 2, 3, 7, 5, 6, 11, 9, 10):
        rule = make_procedure(spec)
        show(rule.label(), rule.choose(p))

    mu = majority_relation(p)
    print("\nmajority digraph (row beats column):")
    print("  " + format_majority_matrix(mu).replace("\n", "\n  ").rstrip())
    print("majority-relation procedures:")
    for spec in (19, 20, 12, 13, 14, 15, 16, 17, 18, 23):
        rule = make_procedure(spec)
        show(rule.label(), rule.choose(mu))

    print("\npairwise-support procedures:")
    for spec in (27, 28):
        rule = make_procedure(spec)
        show(rule.label(), rule.choose(p))

    g = grade_table(p)
    print("\nworst-grade-count order (best class first):")
    print("  " + " > ".join("{" + ", ".join(sorted(c)) + "}" for c in threshold_order(g)))
    show("threshold", make_procedure(22).choose(p))


if __name__ == "__main__":
    main()

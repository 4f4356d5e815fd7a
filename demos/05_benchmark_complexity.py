"""How the procedures scale: timing single rules and whole cost groups.

The bench module answers two practical questions.  First, how does one
procedure's running time grow with the number of alternatives?  We time it
on a grid of profile sizes and fit a power law; the fitted exponent is the
empirical cost order.  Second, do the catalog's cost groups (low / average /
high) actually separate in the measured wall clock?  A quick run here uses
reduced grids; the full desk-scale sweep is `python3 -m twostage.cli bench`
(or the `twostage bench` entry point) and the timing-focused test suite.
"""

from twostage.bench import (
    generate_profile,
    measure_call,
    run_groups,
    run_scaling,
    scaling_report,
)
from twostage.procedures import make_procedure


def main() -> None:
    print("== one measurement ==")
    p = generate_profile(m=2000, n=10, seed=7)
    borda = make_procedure(7)
    seconds = measure_call(lambda: borda.choose(p))
    print(f"borda on m=2000, n=10: {seconds * 1000:.2f} ms")

    print("\n== scaling fits (reduced grids; single trial) ==")
    # Positional-count rules read each ballot once per alternative, so the
    # exponent should sit near 1.  Matrix rules compare every pair of
    # alternatives, so theirs should sit near 2.
    linear = run_scaling(7, m_values=(500, 1000, 2000, 4000, 8000), n=10, trials=1)
    quadratic = run_scaling(27, m_values=(250, 500, 1000, 2000, 4000), n=10, trials=1)
    print(scaling_report([linear, quadratic]))
    print(f"borda exponent   ~= {linear.exponent:.2f}  (expect close to 1)")
    print(f"minimax exponent ~= {quadratic.exponent:.2f}  (expect close to 2)")

    print("\n== cost groups on one shared profile ==")
    report = run_groups(m=2000, n=10, trials=1)
    print("group\tfirst\tsecond\tseconds")
    for row in report.rows:
        print(f"{row.group}\t{row.first}\t{row.second}\t{row.seconds:.6f}")
    for group in ("low", "average", "high"):
        print(f"total {group}: {report.total(group):.6f} s")
    print(f"groups ordered low < average < high: {report.ordered}")
    print(f"average/low separation: {report.separation('average', 'low'):.1f}x")
    print(f"high/average separation: {report.separation('high', 'average'):.1f}x")

    print("\nfull sweep: `python3 -m twostage.cli bench --suite scaling` and")
    print("`... bench --suite groups` run the complete desk-scale grids.")


if __name__ == "__main__":
    main()

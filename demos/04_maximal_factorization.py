"""Remove as few incidences as possible until a factorization exists.

When the incompatibility graph has an odd cycle, no two-factorization
exists.  The fallback is to delete a smallest set of incidences whose
removal breaks every odd cycle; removal can create new clashes among
the survivors, so the search runs in rounds until the remaining
incidence factorizes.  The exact mode proves minimality on the first
round; the heuristic mode scales to inputs the exact search cannot
finish.
"""
import time

import ordfactor as of


def main() -> None:
    ctx = of.load_dataset("monuments")
    result = of.maximal_two_factorization(ctx, mode="exact")
    removed = sorted(
        (ctx.objects[g], ctx.attributes[m]) for g, m in result.removed
    )
    print(f"{ctx.title}:")
    print(f"removed {len(result.removed)} of {ctx.incidence_count} incidences "
          f"in {result.rounds} round(s): {removed}")
    print(f"minimality certified: {result.certificate}")
    assert of.validate_factorization(ctx, result) == []

    # the brute-force oracle agrees on such small inputs
    assert of.brute_force_min_removal(ctx, k_max=2) == 2
    print("brute force over all removals of size 0, 1, 2 agrees\n")

    # an 18x18 context that keeps producing odd cycles across rounds
    hard = of.load_dataset("persistent_odd_cycle")
    started = time.perf_counter()
    heur = of.maximal_two_factorization(hard, mode="heuristic", seed=0)
    elapsed = time.perf_counter() - started
    print(f"{hard.title}:")
    print(f"heuristic removed {len(heur.removed)} of {hard.incidence_count} "
          f"incidences over {heur.rounds} rounds in {elapsed:.2f}s")
    print(f"certified minimal: {heur.certificate} "
          "(multi-round removals carry no certificate)")
    assert of.validate_factorization(hard, heur) == []

    # exact search respects a time budget and reports a lower bound; a
    # random 16x16 context needs far longer than 1 s to finish
    big = of.random_context(of.GeneratorSpec(16, 16, 0.5, 0))
    try:
        of.maximal_two_factorization(big, mode="exact", budget=1.0)
    except of.BudgetExceeded as exc:
        print("\nrandom 16x16 context, density 0.5, seed 0:")
        print(f"exact mode with a 1 s budget stops cleanly: {exc}")
        print(f"every valid removal has at least {exc.lower_bound} incidences")
    else:
        raise AssertionError("the 1 s budget was expected to run out")


if __name__ == "__main__":
    main()

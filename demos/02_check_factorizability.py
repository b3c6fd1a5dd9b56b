"""Decide whether a context splits into two staircase relations.

The test is a graph property.  Build the incompatibility graph on the
incidences: two incidences (g,m) and (h,n) clash when neither (g,n)
nor (h,m) is an incidence.  The context splits into two staircases
exactly when this graph is two-colorable.  An odd cycle is a compact
proof of failure, and the isolated vertices are the incidences that
any split must put into both parts.
"""
import ordfactor as of


def describe(name: str) -> None:
    ctx = of.load_dataset(name)
    graph = of.build_incompatibility_graph(ctx)
    witness = of.bipartition(graph)
    print(f"--- {name} ({ctx.n_objects}x{ctx.n_attributes}, "
          f"{ctx.incidence_count} incidences)")
    print(f"graph: {len(graph.vertices)} vertices, {graph.edge_count} edges, "
          f"{len(of.components(graph))} components")
    if witness.is_bipartite:
        print("two-colorable: a two-factorization exists")
        isolated = of.isolated_pairs(graph)
        if isolated:
            names = [
                (ctx.objects[p.object_index], ctx.attributes[p.attribute_index])
                for p in isolated
            ]
            print(f"incidences free to go in both factors: {names}")
    else:
        cycle = [
            (ctx.objects[g], ctx.attributes[m])
            for g, m in (graph.vertices[i] for i in witness.odd_cycle)
        ]
        print(f"not two-colorable, odd cycle of length {len(cycle)}:")
        for pair in cycle:
            print(f"  {pair}")
    print()


def main() -> None:
    for name in of.available_datasets():
        describe(name)


if __name__ == "__main__":
    main()

package repro.core

import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** The CDS variant of Section 6.3: the densest subgraph CONTAINING a given
  * set Q of query vertices (Tsourakakis's densest-k-subgraph-style variant).
  *
  * Core-based localization as the paper describes: with x = min (k, Ψ)-core
  * number over Q, the x-core contains Q and has density ≥ x/|V_Ψ|, so
  * ρ_opt(Q) ≥ x/|V_Ψ|; and every non-query vertex of the optimum participates
  * in ≥ ⌈ρ_opt(Q)⌉ instances inside it, so the optimum lies inside the
  * (⌈x/|V_Ψ|⌉, Ψ)-core ∪ Q. The flow network pins Q to the source side
  * (s→q arcs no minimum cut crosses); a probe at guess α succeeds iff some
  * Q-containing subgraph has density > α.
  */
object QueryDensest {

  def run(g: LocalGraph, psi: Pattern, query: Set[Int]): Subgraph = {
    require(query.nonEmpty, "query set is empty")
    query.foreach(v => require(v >= 0 && v < g.n, s"query vertex $v is outside [0, ${g.n})"))
    val h     = psi.numVertices
    val store = CliqueCore.instancesOf(g, psi)
    if (store.count == 0) return Subgraph(query.toArray.sorted, 0L)
    val dec = CliqueCore.peel(store)
    val x   = query.map(dec.core(_)).min
    val kLoc = (x + h - 1) / h // ⌈x/|V_Ψ|⌉

    // candidate vertex set: the localization core plus Q itself
    val cand   = (dec.coreVertices(kLoc).toSet ++ query).toArray.sorted
    val pinned = query.toArray.map(java.util.Arrays.binarySearch(cand, _))
    val local  = store.restrict(cand)
    // seed: the smallest core containing Q is itself a Q-containing candidate
    val search = new DensitySearch((nv, inst) => new DensestFlow.Network(nv, DensestFlow.grouping(psi)(inst.toArrays), h, pinned),
      Subgraph(cand, local.count.toLong))
    search.on(cand, local)
    // both start points are at most ρ_opt(Q), so a first probe that fails
    // has an optimum as its source side
    search.climb(math.max(x.toDouble / h, search.best.density))
    // the result must contain Q: every probe's source side and the seed do
    search.best
  }
}

package repro.core

import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** The existing exact CDS/PDS algorithm (Algorithm 1, Goldberg/Tsourakakis).
  *
  * Search on the density guess α from the whole graph's density up
  * ([[DensitySearch.climb]]); every probe cuts the flow network on the ENTIRE
  * graph (built once, reused across probes), one group per instance. No
  * core-based pruning and no `construct+` grouping — this is the baseline
  * CoreExact is measured against.
  */
object Exact {

  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val store = CliqueCore.instancesOf(g, psi)
    if (store.count == 0) return Subgraph.none(g)
    val h   = psi.numVertices
    val all = (0 until g.n).toArray
    // seed with the whole graph: the first probe, at its density, fails
    // when G is its own CDS
    val search = new DensitySearch(
      (nv, local) => new DensestFlow.Network(nv, DensestFlow.ungrouped(local.toArrays), h),
      Subgraph(all, store.count.toLong))
    search.on(all, store)
    search.climb(search.best.density)
    search.best
  }
}

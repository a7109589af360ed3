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
    val instances = psi.instances(g)
    if (instances.isEmpty) return Subgraph.none(g)
    val n = g.n
    val h = psi.numVertices
    val all = (0 until n).toArray
    // seed with the whole graph: the first probe, at its density, fails
    // when G is its own CDS
    val search = new DensitySearch(
      (nv, local) => new DensestFlow.Network(nv, DensestFlow.ungrouped(local), h),
      Subgraph(all, instances.length.toLong, instances.length.toDouble / n))
    search.on(all, instances)
    search.climb(search.best.density)
    search.best
  }
}

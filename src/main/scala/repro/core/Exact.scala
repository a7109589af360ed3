package repro.core

import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** The existing exact CDS/PDS algorithm (Algorithm 1, Goldberg/Tsourakakis).
  *
  * Binary search on the density guess α over [0, max clique-degree]; every
  * probe cuts the flow network on the ENTIRE graph (built once, reused across
  * probes). No core-based pruning — this is the baseline CoreExact is
  * measured against. As in [[CoreExact]], a successful probe raises the
  * lower bound to the density it found rather than to α. `grouped = true`
  * switches the network to `construct+` (Algorithm 7), which the paper
  * applies to general patterns.
  */
object Exact {

  def run(g: LocalGraph, psi: Pattern, grouped: Boolean = false): Subgraph = {
    val n = g.n
    if (n == 0) return Subgraph(Array.empty, 0L, 0.0)
    val instances = psi.instances(g)
    if (instances.isEmpty) return Subgraph(Array(0), 0L, 0.0)
    val h = psi.numVertices
    val deg = new Array[Long](n)
    instances.foreach(_.foreach(v => deg(v) += 1))
    val all = (0 until n).toArray
    // seed with the whole graph so the result is defined even if every probe
    // at α >= ρ_opt fails (possible when ρ_opt = μ/n, i.e. G is its own CDS)
    val search = new DensitySearch((nv, local) => new DensestFlow.Network(
      nv, if (grouped) DensestFlow.group(local) else DensestFlow.ungrouped(local), h),
      Subgraph(all, instances.length.toLong, instances.length.toDouble / n))
    search.on(all, instances)
    search.bisect(0.0, deg.max.toDouble)
    search.best
  }
}

package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern

/** PeelApp (Algorithm 2): Charikar/Tsourakakis greedy peeling.
  *
  * Removes the minimum-Ψ-degree vertex n times, recording the density of
  * every residual graph; returns the densest residual. 1/|V_Ψ|-approximation
  * (Lemma 11). The peel itself is shared with the decomposition code — the
  * extra work PeelApp does over IncApp is exactly the density bookkeeping.
  */
object PeelApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val instances = psi.instances(g)
    if (instances.isEmpty) return Subgraph(if (g.n > 0) Array(0) else Array.empty, 0L, 0.0)
    val dec  = CliqueCore.decomposeInstances(g.n, instances)
    val s    = dec.bestResidualVertices
    Densest.subgraphOf(instances, g.n, s)
  }
}

/** IncApp (Algorithm 5): full (k, Ψ)-core decomposition, return the
  * (k_max, Ψ)-core. 1/|V_Ψ|-approximation by Lemma 9.
  */
object IncApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val instances = psi.instances(g)
    if (instances.isEmpty) return Subgraph(if (g.n > 0) Array(0) else Array.empty, 0L, 0.0)
    val dec = CliqueCore.decomposeInstances(g.n, instances)
    Densest.subgraphOf(instances, g.n, dec.kMaxCoreVertices)
  }
}

package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern

/** PeelApp (Algorithm 2): Charikar/Tsourakakis greedy peeling.
  *
  * Removes the minimum-Ψ-degree vertex n times, recording the density of
  * every residual graph; returns the densest residual. 1/|V_Ψ|-approximation
  * (Lemma 11). The peel itself is shared with the decomposition code, which
  * counts μ of every residual as it goes, so the answer is not recounted;
  * h-cliques go from the listing kernel into its flat store directly.
  */
object PeelApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val dec = CliqueCore.decompose(g, psi)
    if (dec.totalInstances == 0) Subgraph.none(g) else dec.bestResidual
  }
}

/** IncApp (Algorithm 5): full (k, Ψ)-core decomposition, return the
  * (k_max, Ψ)-core. 1/|V_Ψ|-approximation by Lemma 9.
  */
object IncApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val store = CliqueCore.instancesOf(g, psi)
    if (store.count == 0) return Subgraph.none(g)
    store.subgraph(CliqueCore.peel(store).kMaxCoreVertices)
  }
}

package repro.core

import repro.graph.LocalGraph
import repro.patterns.{Pattern, SpecialCores}

/** PeelApp (Algorithm 2): Charikar/Tsourakakis greedy peeling.
  *
  * Removes the minimum-Ψ-degree vertex n times, recording the density of
  * every residual graph; returns the densest residual. 1/|V_Ψ|-approximation
  * (Lemma 11). The peel is [[SpecialCores.decompose]], which counts μ of
  * every residual as it goes, so the answer is not recounted.
  */
object PeelApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val dec = SpecialCores.decompose(g, psi)
    if (dec.totalInstances == 0) Subgraph.none(g) else dec.bestResidual
  }
}

/** IncApp (Algorithm 5): full (k, Ψ)-core decomposition, return the
  * (k_max, Ψ)-core, μ as the peel counted it. 1/|V_Ψ|-approximation by Lemma 9.
  */
object IncApp {
  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val dec = SpecialCores.decompose(g, psi)
    if (dec.totalInstances == 0) Subgraph.none(g) else dec.kMaxCore
  }
}

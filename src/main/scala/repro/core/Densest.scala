package repro.core

import repro.graph.LocalGraph

/** A candidate densest subgraph: vertex set (local ids of the input graph)
  * and its instance count μ.
  */
final case class Subgraph(vertices: Array[Int], instances: Long) {
  def size: Int = vertices.length

  /** ρ = μ/|V|; 0 on the empty set. */
  def density: Double = if (vertices.isEmpty) 0.0 else instances.toDouble / vertices.length

  /** External ids of the subgraph's vertices w.r.t. the graph it came from. */
  def externalIds(g: LocalGraph): Array[Long] = vertices.map(g.ids)
}

object Subgraph {

  /** The answer on a graph with no instances: density 0 on vertex 0, or on
    * no vertex if `g` is empty. */
  def none(g: LocalGraph): Subgraph = Subgraph(if (g.n > 0) Array(0) else Array.empty, 0L)
}

/** μ recounted over an instance list. No algorithm calls these; they are
  * the benchmark's second route to a reported density. */
object Densest {

  /** μ(G[S], Ψ) by filtering a materialized instance list: instances whose
    * vertices all lie in S (correct for both cliques and non-induced pattern
    * instances — every edge of the instance is present in the induced graph).
    */
  def countWithin(instances: Array[Array[Int]], n: Int, s: Array[Int]): Long = {
    val mask = new Array[Boolean](n)
    var i = 0
    while (i < s.length) { mask(s(i)) = true; i += 1 }
    var c = 0L
    var k = 0
    while (k < instances.length) {
      val inst = instances(k)
      var j = 0
      while (j < inst.length && mask(inst(j))) j += 1
      if (j == inst.length) c += 1
      k += 1
    }
    c
  }

  /** Build a Subgraph record for vertex set `s` of a graph with n vertices. */
  def subgraphOf(instances: Array[Array[Int]], n: Int, s: Array[Int]): Subgraph =
    Subgraph(s, countWithin(instances, n, s))
}

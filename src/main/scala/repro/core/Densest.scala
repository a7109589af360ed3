package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern

/** A candidate densest subgraph: vertex set (local ids of the input graph),
  * its instance count μ and density ρ = μ/|V|.
  */
final case class Subgraph(vertices: Array[Int], instances: Long, density: Double) {
  def size: Int = vertices.length

  /** External ids of the subgraph's vertices w.r.t. the graph it came from. */
  def externalIds(g: LocalGraph): Array[Long] = vertices.map(g.ids)
}

/** Shared helpers for the densest-subgraph algorithms. */
object Densest {

  /** μ(G[S], Ψ) by filtering a materialized instance list: instances whose
    * vertices all lie in S (correct for both cliques and non-induced pattern
    * instances — every edge of the instance is present in the induced graph).
    */
  def countWithin(instances: Array[Array[Int]], n: Int, s: Iterable[Int]): Long = {
    val mask = new Array[Boolean](n)
    s.foreach(mask(_) = true)
    countWithinMask(instances, mask)
  }

  def countWithinMask(instances: Array[Array[Int]], mask: Array[Boolean]): Long = {
    var c = 0L
    instances.foreach { inst =>
      var ok = true
      var i  = 0
      while (ok && i < inst.length) { ok = mask(inst(i)); i += 1 }
      if (ok) c += 1
    }
    c
  }

  /** The instances inside `vs`, renumbered to sorted positions in `vs`. */
  def restrict(instances: Array[Array[Int]], n: Int, vs: Array[Int]): Array[Array[Int]] = {
    val pos = Array.fill(n)(-1)
    var i = 0
    while (i < vs.length) { pos(vs(i)) = i; i += 1 }
    val out = Array.newBuilder[Array[Int]]
    instances.foreach { inst =>
      var j = 0
      while (j < inst.length && pos(inst(j)) >= 0) j += 1
      if (j == inst.length) {
        val a = new Array[Int](j)
        while (j > 0) { j -= 1; a(j) = pos(inst(j)) }
        java.util.Arrays.sort(a)
        out += a
      }
    }
    out.result()
  }

  /** Build a Subgraph record for vertex set `s` of a graph with n vertices. */
  def subgraphOf(instances: Array[Array[Int]], n: Int, s: Array[Int]): Subgraph = {
    val mu = countWithin(instances, n, s)
    Subgraph(s, mu, if (s.isEmpty) 0.0 else mu.toDouble / s.length)
  }

  /** Brute-force densest subgraph for tiny graphs (n <= 20): enumerate every
    * non-empty vertex subset. Test oracle only.
    */
  def bruteForce(g: LocalGraph, psi: Pattern): Subgraph = {
    require(g.n <= 20, s"brute force limited to n<=20, got ${g.n}")
    val inst = psi.instances(g)
    var best = Subgraph(Array(0), 0L, 0.0)
    val mask = new Array[Boolean](g.n)
    var bits = 1
    val lim  = 1 << g.n
    while (bits < lim) {
      java.util.Arrays.fill(mask, false)
      var sz = 0
      var b  = 0
      while (b < g.n) {
        if ((bits & (1 << b)) != 0) { mask(b) = true; sz += 1 }
        b += 1
      }
      val mu   = countWithinMask(inst, mask)
      val dens = mu.toDouble / sz
      if (dens > best.density) {
        best = Subgraph((0 until g.n).filter(mask).toArray, mu, dens)
      }
      bits += 1
    }
    best
  }
}

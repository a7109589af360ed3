package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.collection.mutable

/** (k, Ψ)-core decomposition (Algorithm 3), generalized to any pattern.
  *
  * Instances of Ψ are materialized once and indexed per vertex in one CSR
  * (an offset array of n + 1 entries over one array of instance ids). The
  * shared [[Peel]] removes the live vertex of smallest (Ψ-degree, id); its
  * live instances die and their other members lose one degree each. Core
  * numbers are those of the paper's re-enumeration variant, with the same
  * worst-case complexity (see DESIGN.md "Deviations").
  *
  * The peel also records, for every prefix of removals, μ and the density of
  * the residual graph — this yields ρ' for CoreExact's Pruning 1 and the best
  * residual subgraph S* for PeelApp at no extra asymptotic cost.
  */
object CliqueCore {

  /** Decomposition output.
    *
    * @param core          clique-core number per local vertex id
    * @param order         vertices in peel (removal) order
    * @param totalInstances μ(G, Ψ)
    * @param bestInstances μ of the densest residual subgraph
    * @param bestSuffix    index into `order` such that order[bestSuffix..] is
    *                      the densest residual subgraph (PeelApp's S*)
    */
  final case class Result(core: Array[Long],
                          order: Array[Int],
                          totalInstances: Long,
                          bestInstances: Long,
                          bestSuffix: Int) {
    def kMax: Long = if (core.isEmpty) 0L else core.max

    /** ρ': max Ψ-density over all residual subgraphs. */
    def bestDensity: Double =
      if (order.isEmpty) 0.0 else bestInstances.toDouble / (order.length - bestSuffix)

    /** Vertices (local ids) of the (k, Ψ)-core. */
    def coreVertices(k: Long): Array[Int] = {
      val out = new mutable.ArrayBuilder.ofInt
      var v   = 0
      while (v < core.length) { if (core(v) >= k) out += v; v += 1 }
      out.result()
    }

    /** Vertices of the (k_max, Ψ)-core. */
    def kMaxCoreVertices: Array[Int] = coreVertices(kMax)

    /** Vertices of the densest residual subgraph (PeelApp's S*). */
    def bestResidualVertices: Array[Int] = order.drop(bestSuffix)

    /** The densest residual subgraph, μ as the peel counted it. */
    def bestResidual: Subgraph = Subgraph(bestResidualVertices, bestInstances, bestDensity)
  }

  /** Decompose `g` w.r.t. pattern `psi`. */
  def decompose(g: LocalGraph, psi: Pattern): Result =
    decomposeInstances(g.n, psi.instances(g))

  /** Decompose given pre-materialized instances (local-id arrays).
    *
    * @throws IllegalArgumentException as [[index]] does
    */
  def decomposeInstances(n: Int, instances: Array[Array[Int]]): Result = {
    val (off, ids) = index(n, instances)
    val deg = new Array[Long](n)
    var v   = 0
    while (v < n) { deg(v) = off(v + 1) - off(v); v += 1 }

    val dead = new Array[Boolean](instances.length)
    new Peel(deg) {
      private var mu = instances.length.toLong

      protected def removed(u: Int): Long = {
        var i = off(u)
        while (i < off(u + 1)) {
          val id = ids(i)
          if (!dead(id)) {
            dead(id) = true
            mu -= 1
            // a live instance has only live members
            val inst = instances(id)
            var j = 0
            while (j < inst.length) { if (inst(j) != u) decrement(inst(j)); j += 1 }
          }
          i += 1
        }
        mu
      }
    }.run(instances.length.toLong)
  }

  /** Vertex → instance index as one CSR: the ids of the instances that hold
    * v are `ids(off(v) until off(v + 1))`, in increasing order.
    *
    * @throws IllegalArgumentException if n < 0, or an instance holds a vertex
    *         outside [0, n) or repeats a vertex
    */
  private[core] def index(n: Int, instances: Array[Array[Int]]): (Array[Int], Array[Int]) = {
    if (n < 0) throw new IllegalArgumentException(s"vertex count $n is negative")
    // off(v) counts v's instances, then becomes the end of v's slice of ids
    // and, after the fill, its start
    val off   = new Array[Int](n + 1)
    var total = 0L
    var ii    = 0
    while (ii < instances.length) {
      val inst = instances(ii)
      var i = 0
      while (i < inst.length) {
        val v = inst(i)
        if (v < 0 || v >= n)
          throw new IllegalArgumentException(s"instance $ii holds vertex $v outside [0, $n)")
        var j = 0
        while (j < i) {
          if (inst(j) == v) throw new IllegalArgumentException(s"instance $ii repeats vertex $v")
          j += 1
        }
        off(v) += 1
        i += 1
      }
      total += inst.length
      ii += 1
    }
    if (total > Int.MaxValue)
      throw new IllegalArgumentException(s"$total vertex-instance incidences do not fit one array")
    var v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    val ids = new Array[Int](total.toInt)
    ii = instances.length - 1
    while (ii >= 0) {
      val inst = instances(ii)
      var i = 0
      while (i < inst.length) { val w = inst(i); off(w) -= 1; ids(off(w)) = ii; i += 1 }
      ii -= 1
    }
    (off, ids)
  }
}

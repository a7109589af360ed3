package repro.patterns

import repro.core.{CliqueCore, Peel}
import repro.graph.LocalGraph

/** Appendix-D optimized (k, Ψ)-core decompositions for special patterns.
  *
  * For x-stars and the diamond (C4), pattern-degrees have closed forms over
  * the residual graph, so the peel never materializes instances: removing a
  * vertex only invalidates the degrees of vertices within two hops, which
  * are recomputed from the formulas. This reduces the decomposition from
  * O(n·d^x) (resp. O(n·d^3)) to O(n·d^2), as in Appendix D.
  *
  * Both run on the [[Peel]] engine of [[CliqueCore.decomposeInstances]],
  * with the same (degree, id) tie rule, so core numbers, removal order and
  * best residual suffix match the generic peel over the materialized
  * instance list (asserted in SpecialCoresSpec). Star degrees saturate at
  * Long.MaxValue like [[Combinatorics.choose]].
  */
object SpecialCores {

  /** (k, x-star)-core decomposition without instance materialization. */
  def decomposeStar(g: LocalGraph, x: Int): CliqueCore.Result = {
    require(x >= 2, s"x-star needs x >= 2, got $x")
    val n     = g.n
    val alive = Array.fill(n)(true)
    val deg   = Array.tabulate(n)(g.degree) // residual edge-degree

    def starDeg(v: Int): Long = {
      // Eq. 25: center term + tail terms over live neighbors
      var t = Combinatorics.choose(deg(v), x)
      val a = g.adj(v)
      var i = 0
      while (i < a.length) {
        val u = a(i)
        if (alive(u)) t = Combinatorics.satAdd(t, Combinatorics.choose(deg(u) - 1, x - 1))
        i += 1
      }
      t
    }

    val mu0 = Pattern.Star(x).count(g) // Σ_v C(deg(v), x): one instance per (center, tail-set)
    val w   = new Wedges(g)
    val aff = new Array[Int](n)
    new Peel(Array.tabulate(n)(starDeg)) {
      private var mu = mu0

      // once saturated, μ stays at Long.MaxValue: the lost terms are unknown
      private def replaceTerm(before: Long, after: Long): Unit =
        if (mu != Long.MaxValue) mu = Combinatorics.satAdd(mu - before, after)

      protected def removed(v: Int): Long = {
        alive(v) = false
        val k = w.twoHop(v, alive, aff)
        replaceTerm(Combinatorics.choose(deg(v), x), 0L)
        g.adj(v).foreach { u =>
          if (alive(u)) {
            replaceTerm(Combinatorics.choose(deg(u), x), Combinatorics.choose(deg(u) - 1, x))
            deg(u) -= 1
          }
        }
        var i = 0
        while (i < k) { setDegree(aff(i), starDeg(aff(i))); i += 1 }
        mu
      }
    }.run(mu0)
  }

  /** (k, diamond)-core decomposition (diamond = C4, Appendix D.2). */
  def decomposeDiamond(g: LocalGraph): CliqueCore.Result = {
    val n     = g.n
    val alive = Array.fill(n)(true)
    val w     = new Wedges(g)

    // Σ over live 2-path endpoints u of C(#live common neighbors, 2)
    def c4Deg(v: Int): Long = { w.around(v, alive, -1); w.cycles }

    val pdeg = Array.tabulate(n)(c4Deg)
    val sum0 = pdeg.sum // each live C4 counted 4 times
    val aff  = new Array[Int](n)
    new Peel(pdeg) {
      private var sumDeg = sum0

      protected def removed(v: Int): Long = {
        alive(v) = false
        sumDeg -= pdeg(v)
        val k = w.twoHop(v, alive, aff)
        var i = 0
        while (i < k) {
          val d = c4Deg(aff(i))
          sumDeg += d - pdeg(aff(i))
          setDegree(aff(i), d)
          i += 1
        }
        sumDeg / 4
      }
    }.run(sum0 / 4)
  }
}

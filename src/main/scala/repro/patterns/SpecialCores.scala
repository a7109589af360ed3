package repro.patterns

import repro.cliques.CliqueEnum
import repro.core.{CliqueCore, Peel}
import repro.graph.LocalGraph

/** (k, Ψ)-core decompositions that keep no instance store: the peels of
  * PeelApp, IncApp and every CoreApp round.
  *
  * h-cliques (h >= 3) peel as Algorithm 3 is written: the initial degrees
  * come from one counting pass, and removing u lists again the cliques
  * through u among its live neighbours, over the orientation that pass built.
  * For edges, x-stars and the diamond, pattern-degrees have closed forms over
  * the residual graph (Appendix D). An edge's pattern-degree is the residual
  * degree. For stars and the diamond, removing v kills only instances
  * through v, and one pass over the live 2-paths from v finds what each
  * vertex loses. A removal costs O(Σ_{u∈N(v)} deg(u)), which takes the
  * decomposition from O(n·d^x) (resp. O(n·d^3)) to O(n·d^2). Every peel
  * here lowers the degrees of the shared [[Peel]], which keeps μ, and needs
  * O(n + m) memory. Other patterns peel over [[CliqueCore]]'s store.
  *
  * With the shared (degree, id) tie rule, every result field matches
  * [[CliqueCore.decompose]] over the listed instances (asserted in
  * SpecialCoresSpec). A star count that does not fit a Long is refused
  * before the peel starts ([[Pattern.Star.count]]); every degree and loss
  * is at most that count, so no peel here can overflow.
  */
object SpecialCores {

  /** The one map from a pattern to its peel, for every approximation: the
    * store-free peels for cliques, stars and the diamond,
    * [[CliqueCore.decompose]] over the store otherwise. */
  def decompose(g: LocalGraph, psi: Pattern): CliqueCore.Result = psi match {
    case Pattern.Clique(2) => decomposeEdges(g)
    case Pattern.Clique(h) => decomposeCliques(g, h)
    case Pattern.Star(x)   => decomposeStar(g, x)
    case Pattern.Diamond   => decomposeDiamond(g)
    case _                 => CliqueCore.decompose(g, psi)
  }

  /** The classical k-cores as Charikar's greedy peel over the CSR graph, O(m log n):
    * removing v lowers each live neighbour by one. */
  def decomposeEdges(g: LocalGraph): CliqueCore.Result =
    new Peel(Pattern.Edge.degrees(g)) {
      protected def removed(v: Int): Unit = {
        var i = g.off(v)
        while (i < g.off(v + 1)) { if (live(g.nbr(i))) lower(g.nbr(i), 1); i += 1 }
      }
    }.run(g.m)

  /** (k, h-clique)-core decomposition for h >= 3 that lists again instead
    * of storing: removing u lists the h-cliques through u whose other
    * members are live neighbours of u, and each of those members loses them
    * all in one update. Every clique is listed twice, once by the counting
    * pass and once when its first member leaves. */
  def decomposeCliques(g: LocalGraph, h: Int): CliqueCore.Result = {
    require(h >= 3, s"the clique peel needs h >= 3, got $h")
    val n       = g.n
    val cliques = new CliqueEnum(g, h)
    val deg     = cliques.degrees
    val rest    = new Array[Int](java.util.stream.IntStream.range(0, n).map(g.degree(_)).max().orElse(0)) // u's live neighbours, by id
    val loss    = new Array[Long](n) // what each vertex loses with the current removal
    val hit     = new Array[Int](n)  // the vertices with loss > 0
    new Peel(deg) {
      private var hits = 0
      // c(0) is the removed vertex
      private val kill: Array[Int] => Unit = c => {
        var j = 1
        while (j < h) { val w = c(j); if (loss(w) == 0) { hit(hits) = w; hits += 1 }; loss(w) += 1; j += 1 }
      }

      protected def removed(u: Int): Unit = {
        var k = 0
        var i = g.off(u)
        while (i < g.off(u + 1)) { if (live(g.nbr(i))) { rest(k) = g.nbr(i); k += 1 }; i += 1 }
        cliques.through(u, rest, k)(kill)
        while (hits > 0) { hits -= 1; val w = hit(hits); lower(w, loss(w)); loss(w) = 0 }
      }
    }.run(java.util.Arrays.stream(deg).sum / h)
  }

  /** (k, x-star)-core decomposition without instance materialization. */
  def decomposeStar(g: LocalGraph, x: Int): CliqueCore.Result = {
    val star  = Pattern.Star(x)
    val n     = g.n
    val nbr   = g.nbr
    val d     = java.util.stream.IntStream.range(0, n).map(g.degree(_)).toArray // residual edge-degree
    val loss  = new Array[Long](n)          // what each vertex loses with the current removal
    val hit   = new Array[Int](n)           // the vertices with loss > 0
    import Combinatorics.choose

    new Peel(star.degrees(g)) {
      private var hits = 0

      private def lose(w: Int, by: Long): Unit = if (by > 0) {
        if (loss(w) == 0) { hit(hits) = w; hits += 1 }
        loss(w) += by
      }

      protected def removed(v: Int): Unit = {
        // u ∈ N(v) loses the stars centered on u with tail v and those
        // centered on v with tail u; w ∈ N(u)∖{v} those centered on u with
        // tails v and w (d_u is read before it falls)
        val asTail = choose(d(v) - 1, x - 1)
        var i      = g.off(v)
        while (i < g.off(v + 1)) {
          val u = nbr(i)
          if (live(u)) {
            lose(u, choose(d(u) - 1, x - 1) + asTail)
            val both = choose(d(u) - 2, x - 2)
            if (both > 0) {
              var j = g.off(u)
              while (j < g.off(u + 1)) { if (live(nbr(j))) lose(nbr(j), both); j += 1 }
            }
            d(u) -= 1
          }
          i += 1
        }
        while (hits > 0) { hits -= 1; val w = hit(hits); lower(w, loss(w)); loss(w) = 0 }
      }
    }.run(star.count(g))
  }

  /** (k, diamond)-core decomposition (diamond = C4, Appendix D.2). */
  def decomposeDiamond(g: LocalGraph): CliqueCore.Result = {
    val nbr   = g.nbr
    val alive = Array.fill(g.n)(true)
    val w     = new Wedges(g)
    val pdeg  = Pattern.Diamond.degrees(g)
    new Peel(pdeg) {
      protected def removed(v: Int): Unit = {
        alive(v) = false
        // a dead C4 v–a–u–b: u, opposite v, loses a pair of its common
        // neighbours with v; a and b each lose one per other common neighbour
        w.around(v, alive, -1)
        var i = 0
        while (i < w.size) {
          val c = w.common(w.ends(i)).toLong
          if (c > 1) lower(w.ends(i), c * (c - 1) / 2)
          i += 1
        }
        i = g.off(v)
        while (i < g.off(v + 1)) {
          val a = nbr(i)
          if (alive(a)) {
            var t = 0L
            var j = g.off(a)
            while (j < g.off(a + 1)) { if (nbr(j) != v && alive(nbr(j))) t += w.common(nbr(j)) - 1; j += 1 }
            if (t > 0) lower(a, t)
          }
          i += 1
        }
      }
    }.run(java.util.Arrays.stream(pdeg).sum / 4)
  }
}

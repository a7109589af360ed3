package repro.patterns

import repro.cliques.CliqueEnum
import repro.core.{CliqueCore, Peel}
import repro.graph.LocalGraph

/** (k, Ψ)-core decompositions that keep no instance store: the peels of
  * PeelApp, IncApp and every CoreApp round.
  *
  * h-cliques (h >= 3) peel as Algorithm 3 is written, but count where it
  * lists: the initial degrees come from one counting pass, and removing u
  * counts, per live neighbour, the cliques through u among u's live
  * neighbours, over the orientation that pass built.
  * For edges, x-stars and the diamond, pattern-degrees have closed forms over
  * the residual graph (Appendix D). An edge's pattern-degree is the residual
  * degree. For stars and the diamond, removing v kills only instances
  * through v, and one pass over the live 2-paths from v finds what each
  * vertex loses. A removal costs O(Σ_{u∈N(v)} deg(u)), which takes the
  * decomposition from O(n·d^x) (resp. O(n·d^3)) to O(n·d^2). Every peel
  * here is only its removal rule: it names what each live vertex loses
  * ([[Peel]]'s `lose`), and the shared [[Peel]] sums the losses, lowers
  * each touched vertex once and keeps μ. Each needs O(n + m) memory. Other
  * patterns peel over [[CliqueCore]]'s store.
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
    * removing v costs each live neighbour one edge. */
  def decomposeEdges(g: LocalGraph): CliqueCore.Result =
    new Peel(Pattern.Edge.degrees(g)) {
      protected def removed(v: Int): Unit = {
        var i = g.off(v)
        while (i < g.off(v + 1)) { if (live(g.nbr(i))) lose(g.nbr(i), 1); i += 1 }
      }
    }.run(g.m)

  /** (k, h-clique)-core decomposition for h >= 3 that keeps no store and
    * lists no clique: removing u counts the h-cliques through u whose other
    * members are live neighbours of u, per member ([[CliqueEnum.countThrough]]
    * into a scratch array), and each member loses its count. */
  def decomposeCliques(g: LocalGraph, h: Int): CliqueCore.Result = {
    require(h >= 3, s"the clique peel needs h >= 3, got $h")
    val n       = g.n
    val cliques = new CliqueEnum(g, h)
    val deg     = cliques.degrees
    val rest    = new Array[Int](java.util.stream.IntStream.range(0, n).map(g.degree(_)).max().orElse(0)) // u's live neighbours, by id
    val acc     = new Array[Long](n) // what each of them loses; 0 between removals
    new Peel(deg) {
      protected def removed(u: Int): Unit = {
        var k = 0
        var i = g.off(u)
        while (i < g.off(u + 1)) { if (live(g.nbr(i))) { rest(k) = g.nbr(i); k += 1 }; i += 1 }
        cliques.countThrough(rest, k, acc)
        i = 0
        while (i < k) { lose(rest(i), acc(rest(i))); acc(rest(i)) = 0; i += 1 }
      }
    }.run(java.util.Arrays.stream(deg).sum / h)
  }

  /** (k, x-star)-core decomposition without instance materialization. */
  def decomposeStar(g: LocalGraph, x: Int): CliqueCore.Result = {
    val star  = Pattern.Star(x)
    val n     = g.n
    val nbr   = g.nbr
    val d     = java.util.stream.IntStream.range(0, n).map(g.degree(_)).toArray // residual edge-degree
    import Combinatorics.choose

    new Peel(star.degrees(g)) {
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
          lose(w.ends(i), c * (c - 1) / 2)
          i += 1
        }
        i = g.off(v)
        while (i < g.off(v + 1)) {
          val a = nbr(i)
          if (alive(a)) {
            var t = 0L
            var j = g.off(a)
            while (j < g.off(a + 1)) { if (nbr(j) != v && alive(nbr(j))) t += w.common(nbr(j)) - 1; j += 1 }
            lose(a, t)
          }
          i += 1
        }
      }
    }.run(java.util.Arrays.stream(pdeg).sum / 4)
  }
}

package repro.core

import repro.graph.LocalGraph
import repro.patterns.{Combinatorics, Pattern, SpecialCores}

/** CoreApp (Algorithm 6): compute the (k_max, Ψ)-core top-down.
  *
  * Sort vertices by a cheap upper bound γ(v, Ψ) ≥ core_G(v, Ψ); run the
  * decomposition on subgraphs induced by the top-γ vertex set W, doubling
  * |W| until every vertex outside W has γ below the best k_max seen — at
  * that point the k_max-core of G[W] is the k_max-core of G. Each later
  * round first drops from G[W] the vertices whose γ in G[W] is below the
  * k_max seen. [[EMcore]] is the same search with another bound and growth
  * rule ([[topDown]]).
  *
  * γ choices (Section 6.2): for h-cliques with h >= 3, γ(v) = C(x, h-1)
  * where x is v's CLASSICAL core number; for edges, γ(v) = deg_G(v); for
  * stars/diamond the closed-form pattern degree (Appendix D) is cheap and
  * exact; for other patterns we fall back to the exact pattern degree
  * (a valid upper bound — it is the quantity itself).
  */
object CoreApp {

  /** Upper bound γ(v, Ψ) on the clique/pattern-core number of every vertex. */
  def gamma(g: LocalGraph, psi: Pattern): Array[Long] = psi match {
    case Pattern.Clique(h) if h > 2 =>
      val core = KCore.decompose(g).core
      java.util.stream.IntStream.range(0, g.n).mapToLong(v => Combinatorics.choose(core(v), h - 1)).toArray
    case _ => psi.degrees(g) // closed forms for edges, stars and the diamond: O(n) to O(n·d^2)
  }

  /** Returns (k_max, vertex set of the (k_max, Ψ)-core in g-local ids,
    * μ of that core).
    */
  def kMaxCore(g: LocalGraph, psi: Pattern): (Long, Array[Int], Long) =
    topDown(g, psi, gamma(g, psi), math.max(16, 2 * psi.numVertices), 2 * _)

  /** The top-down search: sort the vertices by `bound` (an upper bound on
    * their Ψ-core numbers, highest first), decompose G[W] for the first |W|
    * of them, starting at |W| = `w0` and growing it by `grow`, until every
    * vertex outside W has a bound below the best k_max seen. From the second
    * round on, G[W] first loses every vertex whose [[gamma]] in G[W] is below
    * that k_max. Returns (k_max, the (k_max, Ψ)-core in g-local ids, μ of
    * that core) as [[SpecialCores.decompose]] reported them for G[W].
    */
  private[core] def topDown(g: LocalGraph, psi: Pattern, bound: Array[Long],
                            w0: Int, grow: Int => Int): (Long, Array[Int], Long) = {
    val n     = g.n
    val order = byBoundDescending(bound)
    var w     = math.min(n, w0)
    var kMax  = 0L
    var best  = Subgraph(Array.emptyIntArray, 0L) // in g-local ids
    var done  = false
    while (!done) {
      val (gw, wMap) = g.inducedWithMap(order.take(w)) // external ids preserved
      // drop the vertices whose γ in G[W] is below k_max: γ bounds core
      // numbers in any graph, so every (k, Ψ)-core of G[W] with k >= k_max
      // lies in the rest, and k_max(G[W]) >= k_max since W only grows
      val (sub, backMap) =
        if (kMax == 0) (gw, wMap)
        else {
          val gam  = gamma(gw, psi)
          val keep = java.util.stream.IntStream.range(0, gw.n).filter(gam(_) >= kMax).toArray
          if (keep.length == gw.n) (gw, wMap)
          else { val (s, m) = gw.inducedWithMap(keep); (s, m.map(wMap)) }
        }
      val dec = SpecialCores.decompose(sub, psi)
      if (dec.kMax >= kMax) { kMax = dec.kMax; best = Subgraph(dec.kMaxCoreVertices.map(backMap), dec.kMaxInstances) }
      // stopping criterion (line 4): every vertex outside W has a bound < k_max
      done = w >= n || bound(order(w)) < kMax
      if (!done) w = math.min(n, grow(w))
    }
    (kMax, best.vertices, best.instances)
  }

  /** 0 until bound.length by `bound` descending, ties by id ascending, with
    * no boxing: each vertex sorts as (rank of its bound from the top, id)
    * packed in one Long. */
  private[core] def byBoundDescending(bound: Array[Long]): Array[Int] = {
    val n = bound.length
    // distinct(0 until d): the distinct bounds, ascending
    val distinct = bound.clone()
    java.util.Arrays.sort(distinct)
    var d, v = 0
    while (v < n) { if (d == 0 || distinct(v) != distinct(d - 1)) { distinct(d) = distinct(v); d += 1 }; v += 1 }
    val key = new Array[Long](n)
    v = 0
    while (v < n) { key(v) = (d - 1L - java.util.Arrays.binarySearch(distinct, 0, d, bound(v))) << 32 | v; v += 1 }
    java.util.Arrays.sort(key)
    val order = new Array[Int](n)
    v = 0
    while (v < n) { order(v) = key(v).toInt; v += 1 }
    order
  }
}

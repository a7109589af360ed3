package repro.core

import repro.graph.LocalGraph
import repro.patterns.{Combinatorics, Pattern}

/** CoreApp (Algorithm 6): compute the (k_max, Ψ)-core top-down.
  *
  * Sort vertices by a cheap upper bound γ(v, Ψ) ≥ core_G(v, Ψ); run the
  * decomposition on subgraphs induced by the top-γ vertex set W, doubling
  * |W| until every vertex outside W has γ below the best k_max seen — at
  * that point the k_max-core of G[W] is the k_max-core of G.
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
    case Pattern.Clique(2)          => Array.tabulate(g.n)(v => g.degree(v).toLong)
    case Pattern.Clique(h)          =>
      val core = KCore.decompose(g).core
      Array.tabulate(g.n)(v => Combinatorics.choose(core(v), h - 1))
    case Pattern.Star(_) | Pattern.Diamond => psi.degrees(g) // closed form, O(n·d^2)
    case _                          => psi.degrees(g)
  }

  def run(g: LocalGraph, psi: Pattern): Subgraph = {
    val (_, verts, inst) = kMaxCore(g, psi)
    if (verts.isEmpty) return Subgraph(if (g.n > 0) Array(0) else Array.empty, 0L, 0.0)
    Subgraph(verts, inst, inst.toDouble / verts.length)
  }

  /** Returns (k_max, vertex set of the (k_max, Ψ)-core in g-local ids,
    * μ of that core).
    */
  def kMaxCore(g: LocalGraph, psi: Pattern): (Long, Array[Int], Long) = {
    val n = g.n
    if (n == 0) return (0L, Array.empty, 0L)
    val gam   = gamma(g, psi)
    val order = (0 until n).sortBy(v => -gam(v)).toArray

    var w     = math.min(n, math.max(16, 2 * psi.numVertices))
    var kMax  = 0L
    var bestVs  = Array.empty[Int] // in g-local ids
    var bestMu  = 0L
    var done  = false
    while (!done) {
      val wVerts = order.take(w)
      val (sub, backMap) = g.inducedWithMap(wVerts) // external ids preserved
      // For edges the classical O(m) bin-sort decomposition IS the
      // (k, Ψ)-core decomposition; stars and the diamond use the Appendix-D
      // closed-form peel — neither materializes instances.
      val (subKMax, coreLocal, mu) = psi match {
        case Pattern.Clique(2) =>
          val dec  = KCore.decompose(sub)
          val core = dec.coreVertices(dec.kMax)
          (dec.kMax.toLong, core, sub.induced(core).m)
        case Pattern.Star(x) =>
          val dec  = repro.patterns.SpecialCores.decomposeStar(sub, x)
          val core = dec.kMaxCoreVertices
          (dec.kMax, core, psi.count(sub.induced(core)))
        case Pattern.Diamond =>
          val dec  = repro.patterns.SpecialCores.decomposeDiamond(sub)
          val core = dec.kMaxCoreVertices
          (dec.kMax, core, psi.count(sub.induced(core)))
        case _ =>
          val inst = psi.instances(sub)
          val dec  = CliqueCore.decomposeInstances(sub.n, inst)
          val core = dec.kMaxCoreVertices
          (dec.kMax, core, Densest.countWithin(inst, sub.n, core))
      }
      if (subKMax >= kMax) {
        kMax = subKMax
        bestVs = coreLocal.map(backMap)
        bestMu = mu
      }
      // stopping criterion (line 4): every vertex outside W has γ < k_max
      done = w >= n || gam(order(w)) < kMax
      if (!done) w = math.min(n, 2 * w)
    }
    (kMax, bestVs, bestMu)
  }
}

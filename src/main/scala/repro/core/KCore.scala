package repro.core

import repro.graph.LocalGraph

/** Classical (edge-based) k-core decomposition, Batagelj–Zaversnik bin sort.
  *
  * O(n + m): vertices are bucketed by current degree and peeled in
  * increasing order; the removal order is simultaneously a degeneracy
  * ordering, which the clique enumerator reuses.
  */
object KCore {

  /** Result of a decomposition.
    *
    * @param core  core number per local vertex id
    * @param order vertices in peel order (a degeneracy ordering)
    * @param rank  position of each vertex in `order`
    */
  final case class Decomposition(core: Array[Int], order: Array[Int], rank: Array[Int]) {
    def kMax: Int = if (core.isEmpty) 0 else core.max

    /** Local vertex ids of the k-core (vertices with core number >= k),
      * ascending: vertices leave in nondecreasing core order. */
    def coreVertices(k: Int): Array[Int] = suffix(order, core(_) >= k)
  }

  /** The suffix of a peel `order` where `inCore` starts to hold, sorted;
    * it holds from there to the end and nowhere before. */
  private[core] def suffix(order: Array[Int], inCore: Int => Boolean): Array[Int] = {
    var lo = 0
    var hi = order.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (inCore(order(mid))) hi = mid else lo = mid + 1 }
    val vs = java.util.Arrays.copyOfRange(order, lo, order.length)
    java.util.Arrays.sort(vs)
    vs
  }

  /** Full core decomposition of `g`. */
  def decompose(g: LocalGraph): Decomposition = {
    val n = g.n
    if (n == 0) return Decomposition(Array.empty, Array.empty, Array.empty)
    val deg  = new Array[Int](n)
    var maxD = 0
    var v    = 0
    while (v < n) { deg(v) = g.degree(v); maxD = math.max(maxD, deg(v)); v += 1 }
    // bin sort by degree
    val bin = new Array[Int](maxD + 2)
    v = 0
    while (v < n) { bin(deg(v)) += 1; v += 1 }
    var start = 0
    var d = 0
    while (d <= maxD) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos  = new Array[Int](n)
    val vert = new Array[Int](n)
    v = 0
    while (v < n) { pos(v) = bin(deg(v)); vert(pos(v)) = v; bin(deg(v)) += 1; v += 1 }
    d = maxD
    while (d >= 1) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0

    val core = deg.clone()
    var i = 0
    while (i < n) {
      val u = vert(i)
      var j = g.off(u)
      while (j < g.off(u + 1)) {
        val w = g.nbr(j)
        if (core(w) > core(u)) {
          // swap w to the front of its bin, shrink its degree by one
          val dw = core(w); val pw = pos(w)
          val pf = bin(dw); val f = vert(pf)
          if (f != w) {
            pos(w) = pf; vert(pf) = w
            pos(f) = pw; vert(pw) = f
          }
          bin(dw) += 1
          core(w) -= 1
        }
        j += 1
      }
      i += 1
    }
    val rank = new Array[Int](n)
    var k = 0
    while (k < n) { rank(vert(k)) = k; k += 1 }
    Decomposition(core, vert, rank)
  }
}

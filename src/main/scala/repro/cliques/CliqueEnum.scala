package repro.cliques

import repro.core.KCore
import repro.graph.LocalGraph

/** h-clique listing, the kernel of [[repro.patterns.Pattern.Clique]]: its
  * instances, clique-degrees and counts all come from [[forEach]].
  *
  * Degeneracy-ordered listing in the style of kClist (Danisch, Balalau,
  * Sozio, WWW'18): orient every edge from lower to higher degeneracy rank,
  * then recursively extend cliques inside out-neighborhoods. Each h-clique
  * instance is emitted exactly once, as a sorted array of local vertex ids.
  *
  * The out-lists are one CSR (`off` over `out`, each list sorted by id), and
  * every depth keeps one candidate buffer as long as the largest out-list,
  * so the listing allocates nothing per clique or per extension. The last
  * vertex is not picked from a built intersection: `out(u)` is scanned
  * against a mark array holding the parent's candidates. Both ways yield the
  * candidates in id order, so cliques come out in the order of the plain
  * intersect-and-recurse enumeration.
  */
object CliqueEnum {

  /** Visit every h-clique of `g` once. `f` receives a SORTED array of local
    * vertex ids; the array is reused across calls — copy if you keep it.
    */
  def forEach(g: LocalGraph, h: Int)(f: Array[Int] => Unit): Unit = {
    require(h >= 1, s"h must be >= 1, got $h")
    val n    = g.n
    val emit = new Array[Int](h)
    if (h == 1) {
      var v = 0
      while (v < n) { emit(0) = v; f(emit); v += 1 }
      return
    }
    if (n == 0) return
    val rank = KCore.decompose(g).rank
    // out-neighbours (higher rank) of v, filtered from the graph's slice:
    // out(off(v) until off(v + 1)), by id
    val off    = new Array[Int](n + 1)
    val out    = new Array[Int](g.m.toInt)
    var maxOut = 0
    var v      = 0
    while (v < n) {
      var e = off(v)
      var i = g.off(v)
      while (i < g.off(v + 1)) { val w = g.nbr(i); if (rank(w) > rank(v)) { out(e) = w; e += 1 }; i += 1 }
      off(v + 1) = e
      maxOut = math.max(maxOut, e - off(v))
      v += 1
    }

    val clique = new Array[Int](h)
    def emitSorted(): Unit = {
      // insertion sort: h is small
      var i = 0
      while (i < h) {
        val x = clique(i)
        var j = i
        while (j > 0 && emit(j - 1) > x) { emit(j) = emit(j - 1); j -= 1 }
        emit(j) = x
        i += 1
      }
      f(emit)
    }

    if (h == 2) {
      v = 0
      while (v < n) {
        clique(0) = v
        var i = off(v)
        while (i < off(v + 1)) { clique(1) = out(i); emitSorted(); i += 1 }
        v += 1
      }
      return
    }

    // cand(d)(0 until len(d)), 1 <= d <= h - 2: the common out-neighbours of
    // clique(0 until d); the last pick needs no buffer
    val cand = Array.tabulate(h - 1)(d => if (d == 0) null else new Array[Int](maxOut))
    val len  = new Array[Int](h - 1)
    val mark = new Array[Boolean](n)

    def rec(d: Int): Unit = {
      val c = cand(d)
      val k = len(d)
      if (k >= h - d) {
        var i = 0
        if (d == h - 2) {
          // the last two picks: u from c, then every w of out(u) that is in c
          while (i < k) { mark(c(i)) = true; i += 1 }
          i = 0
          while (i < k) {
            val u = c(i)
            clique(d) = u
            var j = off(u)
            while (j < off(u + 1)) {
              val w = out(j)
              if (mark(w)) { clique(d + 1) = w; emitSorted() }
              j += 1
            }
            i += 1
          }
          i = 0
          while (i < k) { mark(c(i)) = false; i += 1 }
        } else {
          val next = cand(d + 1)
          while (i < k) {
            val u = c(i)
            clique(d) = u
            // merge-intersect c with out(u)
            var a = 0; var b = off(u); var t = 0
            val end = off(u + 1)
            while (a < k && b < end) {
              if (c(a) < out(b)) a += 1
              else if (c(a) > out(b)) b += 1
              else { next(t) = c(a); t += 1; a += 1; b += 1 }
            }
            len(d + 1) = t
            rec(d + 1)
            i += 1
          }
        }
      }
    }

    v = 0
    while (v < n) {
      clique(0) = v
      len(1) = off(v + 1) - off(v)
      System.arraycopy(out, off(v), cand(1), 0, len(1))
      rec(1)
      v += 1
    }
  }
}

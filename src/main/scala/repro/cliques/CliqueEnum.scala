package repro.cliques

import repro.core.KCore
import repro.graph.LocalGraph

/** h-clique listing, the kernel of [[repro.patterns.Pattern.Clique]]: its
  * instances and counts come from [[forEach]], its clique-degrees from
  * [[CliqueEnum#degrees]].
  */
object CliqueEnum {

  /** Visit every h-clique of `g` once. `f` receives a SORTED array of local
    * vertex ids; the array is reused across calls — copy if you keep it.
    */
  def forEach(g: LocalGraph, h: Int)(f: Array[Int] => Unit): Unit = {
    require(h >= 1, s"h must be >= 1, got $h")
    if (h > 1) new CliqueEnum(g, h).forEach(f)
    else {
      val emit = new Array[Int](1)
      var v    = 0
      while (v < g.n) { emit(0) = v; f(emit); v += 1 }
    }
  }
}

/** The h-cliques of `g` (h >= 2), degeneracy-ordered in the style of kClist
  * (Danisch, Balalau, Sozio, WWW'18): every edge is oriented once, from
  * lower to higher degeneracy rank, and one recursion extends cliques inside
  * out-neighbourhoods. [[forEach]] lists every h-clique; [[through]] lists
  * those through one vertex, which is how the store-free clique peel
  * ([[repro.patterns.SpecialCores.decomposeCliques]]) finds what a removal
  * kills.
  *
  * The out-lists are one CSR (`off` over `out`, each list sorted by id), and
  * every depth keeps one candidate buffer as long as the largest out-list,
  * so the listing allocates nothing per clique or per extension. The last
  * vertex is not picked from a built intersection: `out(u)` is scanned
  * against a mark array holding the parent's candidates. Both ways yield the
  * candidates in id order, so cliques come out in the order of the plain
  * intersect-and-recurse enumeration.
  */
final class CliqueEnum(g: LocalGraph, h: Int) {
  require(h >= 2, s"h must be >= 2, got $h")
  private val n = g.n
  // out-neighbours (higher rank) of v, filtered from the graph's slice:
  // out(off(v) until off(v + 1)), by id
  private val off    = new Array[Int](n + 1)
  private val out    = new Array[Int](g.m.toInt)
  private var maxOut = 0

  {
    val rank = KCore.decompose(g).rank
    var v    = 0
    while (v < n) {
      var e = off(v)
      var i = g.off(v)
      while (i < g.off(v + 1)) { val w = g.nbr(i); if (rank(w) > rank(v)) { out(e) = w; e += 1 }; i += 1 }
      off(v + 1) = e
      maxOut = math.max(maxOut, e - off(v))
      v += 1
    }
  }

  private val clique = new Array[Int](h)
  private val emit   = new Array[Int](h)
  // cand(d), 1 <= d < h: a buffer for the common out-neighbours of
  // clique(0 until d)
  private val cand   = Array.fill(h)(new Array[Int](maxOut))
  private val mark   = new Array[Boolean](n)
  private var visit: Array[Int] => Unit = _
  private var sorted = true

  /** Visit every h-clique once, as [[CliqueEnum.forEach]] does. */
  def forEach(f: Array[Int] => Unit): Unit = { visit = f; sorted = true; all() }

  /** Clique-degree per vertex, from one listing pass: what
    * [[repro.patterns.Pattern.Clique]]'s degrees are. */
  def degrees: Array[Long] = {
    val d = new Array[Long](n)
    visit = c => { var i = 0; while (i < h) { d(c(i)) += 1; i += 1 } }
    sorted = false
    all()
    d
  }

  /** Visit once every h-clique that holds `u` and whose other h − 1 members
    * lie in `c(0 until k)`: neighbours of u, sorted by id. `f` receives the
    * clique in a reused array, u first and the others in no fixed order.
    */
  def through(u: Int, c: Array[Int], k: Int)(f: Array[Int] => Unit): Unit = {
    visit = f
    sorted = false
    clique(0) = u
    rec(1, c, k)
  }

  private def all(): Unit = {
    var v = 0
    while (v < n) {
      val k = off(v + 1) - off(v)
      clique(0) = v
      System.arraycopy(out, off(v), cand(1), 0, k)
      rec(1, cand(1), k)
      v += 1
    }
  }

  /** Extend clique(0 until d) by h − d vertices from `c(0 until k)`, the
    * common neighbours of clique(0 until d) that are left, sorted by id. */
  private def rec(d: Int, c: Array[Int], k: Int): Unit = if (k >= h - d) {
    // locals: the JIT would reload the fields after every visit
    val off = this.off; val out = this.out; val mark = this.mark
    var i = 0
    if (d == h - 1) {
      while (i < k) { clique(d) = c(i); found(); i += 1 }
    } else if (d == h - 2) {
      // the last two picks: u from c, then every w of out(u) that is in c
      while (i < k) { mark(c(i)) = true; i += 1 }
      i = 0
      while (i < k) {
        val u = c(i)
        clique(d) = u
        var j = off(u)
        while (j < off(u + 1)) {
          val w = out(j)
          if (mark(w)) { clique(d + 1) = w; found() }
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
        rec(d + 1, next, t)
        i += 1
      }
    }
  }

  private def found(): Unit =
    if (!sorted) visit(clique)
    else {
      // insertion sort: h is small
      var i = 0
      while (i < h) {
        val x = clique(i)
        var j = i
        while (j > 0 && emit(j - 1) > x) { emit(j) = emit(j - 1); j -= 1 }
        emit(j) = x
        i += 1
      }
      visit(emit)
    }
}

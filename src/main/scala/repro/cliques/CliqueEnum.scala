package repro.cliques

import repro.core.KCore
import repro.graph.LocalGraph

/** The h-cliques of `g` (h >= 2), degeneracy-ordered in the style of kClist
  * (Danisch, Balalau, Sozio, WWW'18), the kernel of
  * [[repro.patterns.Pattern.Clique]]: every edge is oriented once, from
  * lower to higher degeneracy rank, and one recursion extends cliques inside
  * out-neighbourhoods. [[forEach]] lists every h-clique. [[degrees]] and
  * [[countThrough]] list none: they count, which is how Algorithm 3's
  * clique degrees and the store-free clique peel
  * ([[repro.patterns.SpecialCores.decomposeCliques]]) find their numbers.
  *
  * The out-lists are one CSR (`off` over `out`, each list sorted by id), and
  * every depth keeps one candidate buffer as long as the largest out-list,
  * so neither recursion allocates per clique or per extension. The last two
  * picks are not made from a built intersection: `out(u)` is scanned against
  * a 0/1 mark array holding the parent's candidates. For the listing both
  * ways yield the candidates in id order, so cliques come out in the order
  * of the plain intersect-and-recurse enumeration. The counting recursion
  * returns how many ways the current prefix can be finished and adds to
  * `acc(w)` the finishes that pick w; each level adds its subtotal to its
  * own pick, and the last scan adds the mark instead of testing it. So each
  * h-clique still costs one scanned out-list entry, but no call and no
  * branch.
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
  // 1 on the candidates of the last two picks, 0 elsewhere
  private val one    = new Array[Int](n)
  private var visit: Array[Int] => Unit = _

  /** Visit every h-clique once. `f` receives a SORTED array of local vertex
    * ids; the array is reused across calls — copy if you keep it. */
  def forEach(f: Array[Int] => Unit): Unit = {
    visit = f
    var v = 0
    while (v < n) {
      val k = off(v + 1) - off(v)
      clique(0) = v
      System.arraycopy(out, off(v), cand(1), 0, k)
      rec(1, cand(1), k)
      v += 1
    }
  }

  /** Clique-degree per vertex, counted from every root without listing a
    * clique: what [[repro.patterns.Pattern.Clique]]'s degrees are. */
  def degrees: Array[Long] = {
    val d = new Array[Long](n)
    var v = 0
    while (v < n) {
      val k = off(v + 1) - off(v)
      System.arraycopy(out, off(v), cand(1), 0, k)
      d(v) += count(1, cand(1), k, d)
      v += 1
    }
    d
  }

  /** The h-cliques that hold a vertex u and whose other h − 1 members lie in
    * `c(0 until k)`, neighbours of u sorted by id: adds to `acc(w)` the
    * number of them that hold w, for every w of `c(0 until k)`, and returns
    * their number. Leaves every other entry of `acc` as it was. */
  def countThrough(c: Array[Int], k: Int, acc: Array[Long]): Long = count(1, c, k, acc)

  /** Extend clique(0 until d) by h − d vertices from `c(0 until k)`, the
    * common neighbours of clique(0 until d) that are left, sorted by id. */
  private def rec(d: Int, c: Array[Int], k: Int): Unit = if (k >= h - d) {
    // locals: the JIT would reload the fields after every visit
    val off = this.off; val out = this.out; val one = this.one
    var i = 0
    if (d == h - 1) {
      while (i < k) { clique(d) = c(i); found(); i += 1 }
    } else if (d == h - 2) {
      // the last two picks: u from c, then every w of out(u) that is in c
      while (i < k) { one(c(i)) = 1; i += 1 }
      i = 0
      while (i < k) {
        val u = c(i)
        clique(d) = u
        var j = off(u)
        while (j < off(u + 1)) {
          val w = out(j)
          if (one(w) != 0) { clique(d + 1) = w; found() }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < k) { one(c(i)) = 0; i += 1 }
    } else {
      val next = cand(d + 1)
      while (i < k) {
        val u = c(i)
        clique(d) = u
        val t = intersect(c, k, u, next)
        rec(d + 1, next, t)
        i += 1
      }
    }
  }

  /** The number of ways to extend a prefix of d members by h − d vertices
    * from `c(0 until k)`, its common neighbours that are left, sorted by id;
    * adds to `acc(w)` the ways that pick w. */
  private def count(d: Int, c: Array[Int], k: Int, acc: Array[Long]): Long = if (k < h - d) 0L else {
    val off = this.off; val out = this.out; val one = this.one
    var total = 0L
    var i     = 0
    if (d == h - 1) {
      while (i < k) { acc(c(i)) += 1; i += 1 }
      total = k
    } else if (d == h - 2) {
      // the last two picks: u from c, then every w of out(u) that is in c,
      // adding the mark instead of testing it
      while (i < k) { one(c(i)) = 1; i += 1 }
      i = 0
      while (i < k) {
        val u = c(i)
        var t = 0
        var j = off(u)
        val end = off(u + 1)
        while (j < end) { val w = out(j); val x = one(w); acc(w) += x; t += x; j += 1 }
        acc(u) += t
        total += t
        i += 1
      }
      i = 0
      while (i < k) { one(c(i)) = 0; i += 1 }
    } else {
      val next = cand(d + 1)
      while (i < k) {
        val u = c(i)
        val t = count(d + 1, next, intersect(c, k, u, next), acc)
        acc(u) += t
        total += t
        i += 1
      }
    }
    total
  }

  /** Writes c(0 until k) ∩ out(u) to `next`, by id; returns its size. */
  private def intersect(c: Array[Int], k: Int, u: Int, next: Array[Int]): Int = {
    val out = this.out
    var a = 0; var b = off(u); var t = 0
    val end = off(u + 1)
    while (a < k && b < end) {
      if (c(a) < out(b)) a += 1
      else if (c(a) > out(b)) b += 1
      else { next(t) = c(a); t += 1; a += 1; b += 1 }
    }
    t
  }

  // insertion sort into `emit`: h is small
  private def found(): Unit = {
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

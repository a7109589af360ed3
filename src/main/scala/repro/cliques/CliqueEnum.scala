package repro.cliques

import repro.core.KCore
import repro.graph.LocalGraph
import scala.collection.mutable

/** h-clique listing and clique-degrees.
  *
  * Degeneracy-ordered listing in the style of kClist (Danisch, Balalau,
  * Sozio, WWW'18): orient every edge from lower to higher degeneracy rank,
  * then recursively extend cliques inside out-neighborhoods. Each h-clique
  * instance is emitted exactly once, as a sorted array of local vertex ids.
  */
object CliqueEnum {

  /** Visit every h-clique of `g` once. `f` receives a SORTED array of local
    * vertex ids; the array is reused across calls — copy if you keep it.
    */
  def forEach(g: LocalGraph, h: Int)(f: Array[Int] => Unit): Unit = {
    require(h >= 1, s"h must be >= 1, got $h")
    val n = g.n
    if (n == 0) return
    if (h == 1) {
      val buf = new Array[Int](1)
      var v = 0
      while (v < n) { buf(0) = v; f(buf); v += 1 }
      return
    }
    val rank = KCore.decompose(g).rank
    // out-neighbors (higher rank), sorted by vertex id for merge-intersection
    val out = Array.tabulate(n) { v =>
      val o   = new mutable.ArrayBuilder.ofInt
      val adj = g.adj(v)
      var i   = 0
      while (i < adj.length) { if (rank(adj(i)) > rank(v)) o.addOne(adj(i)); i += 1 }
      o.result()
    }
    val clique = new Array[Int](h)
    val emit   = new Array[Int](h)

    def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
      val res = new mutable.ArrayBuilder.ofInt
      var i = 0; var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) < b(j)) i += 1
        else if (a(i) > b(j)) j += 1
        else { res.addOne(a(i)); i += 1; j += 1 }
      }
      res.result()
    }

    def rec(depth: Int, cand: Array[Int]): Unit = {
      if (depth == h) {
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
      } else if (cand.length >= h - depth) {
        var i = 0
        while (i < cand.length) {
          val u = cand(i)
          clique(depth) = u
          rec(depth + 1, if (depth + 1 == h) Array.emptyIntArray else intersect(cand, out(u)))
          i += 1
        }
      }
    }

    var v = 0
    while (v < n) {
      clique(0) = v
      rec(1, out(v))
      v += 1
    }
  }

  /** Total number of h-cliques in `g`. */
  def count(g: LocalGraph, h: Int): Long = {
    var c = 0L
    forEach(g, h)(_ => c += 1)
    c
  }

  /** Clique-degree deg_G(v, Ψ) per local vertex (Definition 3). */
  def degrees(g: LocalGraph, h: Int): Array[Long] = {
    val d = new Array[Long](g.n)
    forEach(g, h) { cl =>
      var i = 0
      while (i < cl.length) { d(cl(i)) += 1; i += 1 }
    }
    d
  }

  /** Materialize all h-clique instances (sorted local-id arrays). */
  def instances(g: LocalGraph, h: Int): Array[Array[Int]] = {
    val buf = mutable.ArrayBuffer.empty[Array[Int]]
    forEach(g, h)(cl => buf += cl.clone())
    buf.toArray
  }
}

package repro.graph

import scala.collection.mutable

/** Immutable undirected simple graph in CSR-like form.
  *
  * Vertices are dense local ids `0 until n`; `ids(v)` maps back to the
  * original (external) vertex id. Adjacency lists are sorted, self-loops
  * and parallel edges removed at construction. This is the driver-side
  * substrate for the paper's peeling / flow algorithms; distributed code
  * works on edge DataFrames (see [[repro.dist.GraphDF]]) and converts at
  * the boundary.
  *
  * @param ids external id per local vertex id
  * @param adj sorted neighbor arrays per local vertex id
  */
final class LocalGraph(val ids: Array[Long], val adj: Array[Array[Int]]) extends Serializable {

  /** Number of vertices. */
  def n: Int = ids.length

  /** Number of undirected edges. */
  val m: Long = {
    var twice = 0L
    var v     = 0
    while (v < adj.length) { twice += adj(v).length; v += 1 }
    twice / 2
  }

  /** Degree of local vertex `v`. */
  def degree(v: Int): Int = adj(v).length

  /** Maximum degree (0 for the empty graph). */
  def maxDegree: Int = {
    var max = 0
    var v   = 0
    while (v < n) { max = math.max(max, adj(v).length); v += 1 }
    max
  }

  /** Edge test via binary search over the sorted adjacency of `u`. */
  def hasEdge(u: Int, v: Int): Boolean =
    u != v && java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** All undirected edges as (u, v) with u < v, in local ids. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => adj(u).iterator.filter(_ > u).map(v => (u, v)))

  /** Edge list in external ids (u < v by local id order). */
  def edgesExternal: Seq[(Long, Long)] =
    edges.map { case (u, v) => (ids(u), ids(v)) }.toSeq

  /** Subgraph induced by the local vertex set `keep`.
    *
    * The result re-packs vertices to dense ids; `ids` of the result carry
    * the ORIGINAL external ids so densities computed downstream refer to
    * the same vertices.
    */
  def induced(keep: Iterable[Int]): LocalGraph = inducedWithMap(keep)._1

  /** Like [[induced]] but also returns, per new local id, the OLD local id
    * it came from — the top-down algorithms (CoreApp, EMcore) use this to
    * map core vertices back without hash lookups.
    */
  def inducedWithMap(keep: Iterable[Int]): (LocalGraph, Array[Int]) = {
    val keepArr = keep.toArray.distinct.sorted
    val newId   = Array.fill(n)(-1)
    var i = 0
    while (i < keepArr.length) { newId(keepArr(i)) = i; i += 1 }
    val newAdj = keepArr.map { v =>
      val a   = adj(v)
      val buf = new mutable.ArrayBuilder.ofInt
      var j = 0
      while (j < a.length) {
        val w = newId(a(j))
        if (w >= 0) buf.addOne(w)
        j += 1
      }
      buf.result() // adj is sorted and newId is monotone, so this stays sorted
    }
    (new LocalGraph(keepArr.map(ids), newAdj), keepArr)
  }

  /** Connected components of the subgraph induced by `subset`, each a
    * sorted array of local ids, in order of their first vertex in `subset`.
    */
  def components(subset: Array[Int]): IndexedSeq[Array[Int]] = {
    val inSet = new Array[Boolean](n)
    subset.foreach(inSet(_) = true)
    val seen = new Array[Boolean](n)
    val out  = mutable.ArrayBuffer.empty[Array[Int]]
    subset.foreach { s =>
      if (!seen(s)) {
        val comp  = new mutable.ArrayBuilder.ofInt
        val stack = new mutable.ArrayDeque[Int]()
        seen(s) = true; stack.append(s)
        while (stack.nonEmpty) {
          val v = stack.removeLast()
          comp.addOne(v)
          adj(v).foreach { w =>
            if (inSet(w) && !seen(w)) { seen(w) = true; stack.append(w) }
          }
        }
        val c = comp.result()
        java.util.Arrays.sort(c)
        out += c
      }
    }
    out.toIndexedSeq
  }

  override def toString: String = s"LocalGraph(n=$n, m=$m)"
}

object LocalGraph {

  /** Build from an undirected edge list over arbitrary Long ids.
    *
    * Self-loops are dropped; duplicate/reversed edges collapse. Vertices
    * with no surviving edge only appear if listed in `extraVertices`.
    *
    * Sort-based, on primitive arrays: the sorted distinct endpoints become
    * `ids`, each edge becomes the key (u << 32 | v) over local ids u < v,
    * and the sorted distinct keys fill every adjacency list in id order.
    */
  def fromEdges(edgeList: IterableOnce[(Long, Long)],
                extraVertices: IterableOnce[Long] = Nil): LocalGraph = {
    // endpoints of the non-loop edges, two per edge
    var ends = new Array[Long](64)
    var k    = 0
    edgeList.iterator.foreach { case (a, b) =>
      if (a != b) {
        if (k + 2 > ends.length) ends = java.util.Arrays.copyOf(ends, 2 * ends.length)
        ends(k) = a; ends(k + 1) = b; k += 2
      }
    }
    val extra = extraVertices.iterator.toArray
    val all   = java.util.Arrays.copyOf(ends, k + extra.length)
    System.arraycopy(extra, 0, all, k, extra.length)
    java.util.Arrays.sort(all)
    val ids = java.util.Arrays.copyOf(all, dedupe(all))
    val n   = ids.length

    val keys = new Array[Long](k / 2)
    var i    = 0
    while (i < keys.length) {
      val u = java.util.Arrays.binarySearch(ids, ends(2 * i))
      val v = java.util.Arrays.binarySearch(ids, ends(2 * i + 1))
      keys(i) = if (u < v) (u.toLong << 32) | v else (v.toLong << 32) | u
      i += 1
    }
    java.util.Arrays.sort(keys)
    val m   = dedupe(keys)
    val deg = new Array[Int](n)
    i = 0
    while (i < m) { deg((keys(i) >>> 32).toInt) += 1; deg(keys(i).toInt) += 1; i += 1 }
    val adj = Array.tabulate(n)(v => new Array[Int](deg(v)))
    java.util.Arrays.fill(deg, 0)
    // keys ascend, so w's neighbours below w arrive before those above it,
    // each group in increasing order: every list fills sorted
    i = 0
    while (i < m) {
      val u = (keys(i) >>> 32).toInt
      val v = keys(i).toInt
      adj(u)(deg(u)) = v; deg(u) += 1
      adj(v)(deg(v)) = u; deg(v) += 1
      i += 1
    }
    new LocalGraph(ids, adj)
  }

  /** Moves the distinct values of the sorted array `a` to its front and
    * returns their number.
    */
  private def dedupe(a: Array[Long]): Int = {
    var d = 0
    var i = 0
    while (i < a.length) {
      if (d == 0 || a(i) != a(d - 1)) { a(d) = a(i); d += 1 }
      i += 1
    }
    d
  }
}

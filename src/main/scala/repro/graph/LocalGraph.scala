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
  val m: Long = adj.map(_.length.toLong).sum / 2

  /** Degree of local vertex `v`. */
  def degree(v: Int): Int = adj(v).length

  /** Maximum degree (0 for the empty graph). */
  def maxDegree: Int = if (n == 0) 0 else adj.map(_.length).max

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
  def components(subset: Array[Int]): Seq[Array[Int]] = {
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
    out.toSeq
  }

  override def toString: String = s"LocalGraph(n=$n, m=$m)"
}

object LocalGraph {

  /** Build from an undirected edge list over arbitrary Long ids.
    *
    * Self-loops are dropped; duplicate/reversed edges collapse. Vertices
    * with no surviving edge only appear if listed in `extraVertices`.
    */
  def fromEdges(edgeList: IterableOnce[(Long, Long)],
                extraVertices: IterableOnce[Long] = Nil): LocalGraph = {
    val canon = mutable.HashSet.empty[(Long, Long)]
    edgeList.iterator.foreach { case (a, b) =>
      if (a != b) canon += (if (a < b) (a, b) else (b, a))
    }
    val vertexIds = mutable.TreeSet.empty[Long]
    canon.foreach { case (a, b) => vertexIds += a; vertexIds += b }
    extraVertices.iterator.foreach(vertexIds += _)
    val ids   = vertexIds.toArray
    val index = ids.iterator.zipWithIndex.toMap
    val builders = Array.fill(ids.length)(new mutable.ArrayBuilder.ofInt)
    canon.foreach { case (a, b) =>
      val (u, v) = (index(a), index(b))
      builders(u).addOne(v); builders(v).addOne(u)
    }
    new LocalGraph(ids, builders.map(_.result().sorted))
  }
}

package repro.graph

/** Immutable undirected simple graph in CSR form.
  *
  * Vertices are dense local ids `0 until n`; `ids(v)` maps back to the
  * original (external) vertex id, and `ids` ascends. The neighbours of `v`
  * are the slice `nbr(off(v) until off(v + 1))`, sorted, with no self-loops
  * and no duplicates; every edge appears in the slices of both endpoints,
  * so `off(n) = 2m`. This is the single-machine substrate for the paper's
  * peeling / flow algorithms; distributed code works on edge DataFrames (see
  * [[repro.dist.GraphDF]]) and converts at the boundary.
  *
  * @param ids external id per local vertex id, ascending
  * @param off slice bounds, `n + 1` entries starting at 0
  * @param nbr every vertex's sorted neighbour slice, packed in vertex order
  */
final class LocalGraph(val ids: Array[Long], val off: Array[Int], val nbr: Array[Int]) extends Serializable {

  /** Number of vertices. */
  def n: Int = ids.length

  /** Number of undirected edges. */
  def m: Long = off(n) / 2

  /** Degree of local vertex `v`. */
  def degree(v: Int): Int = off(v + 1) - off(v)

  /** Edge test via binary search over the sorted slice of `u`. */
  def hasEdge(u: Int, v: Int): Boolean =
    u != v && java.util.Arrays.binarySearch(nbr, off(u), off(u + 1), v) >= 0

  /** All undirected edges as (u, v) with u < v, in local ids. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => (off(u) until off(u + 1)).iterator.map(nbr).filter(_ > u).map(v => (u, v)))

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
    val newId = Array.fill(n)(-1)
    keep.foreach(newId(_) = 0)
    // kept vertices in id order get consecutive new ids; `room` bounds the slices
    var k    = 0
    var room = 0
    var v    = 0
    while (v < n) { if (newId(v) == 0) { newId(v) = k; k += 1; room += degree(v) }; v += 1 }
    val old  = new Array[Int](k)
    val sOff = new Array[Int](k + 1)
    val sNbr = new Array[Int](room)
    var e = 0
    v = 0
    while (v < n) {
      val i = newId(v)
      if (i >= 0) {
        old(i) = v
        var j = off(v)
        // the slice is sorted and newId is monotone, so this stays sorted
        while (j < off(v + 1)) { val w = newId(nbr(j)); if (w >= 0) { sNbr(e) = w; e += 1 }; j += 1 }
        sOff(i + 1) = e
      }
      v += 1
    }
    (new LocalGraph(old.map(ids), sOff, java.util.Arrays.copyOf(sNbr, e)), old)
  }

  /** Connected components of the subgraph induced by `subset`, each a
    * sorted array of local ids, in order of their first vertex in `subset`.
    */
  def components(subset: Array[Int]): IndexedSeq[Array[Int]] = {
    val inSet = new Array[Boolean](n)
    subset.foreach(inSet(_) = true)
    val seen = new Array[Boolean](n)
    // each vertex is queued once; a component is the queue span it filled
    val queue = new Array[Int](subset.length)
    var tail  = 0
    val out   = IndexedSeq.newBuilder[Array[Int]]
    var s = 0
    while (s < subset.length) {
      val root = subset(s)
      if (!seen(root)) {
        val start = tail
        var head  = tail
        seen(root) = true; queue(tail) = root; tail += 1
        while (head < tail) {
          val v = queue(head)
          head += 1
          var j = off(v)
          while (j < off(v + 1)) {
            val w = nbr(j)
            if (inSet(w) && !seen(w)) { seen(w) = true; queue(tail) = w; tail += 1 }
            j += 1
          }
        }
        val c = java.util.Arrays.copyOfRange(queue, start, tail)
        java.util.Arrays.sort(c)
        out += c
      }
      s += 1
    }
    out.result()
  }

  override def toString: String = s"LocalGraph(n=$n, m=$m)"
}

object LocalGraph {

  /** The most endpoints one `Int`-indexed array holds, kept even. */
  private val MaxEnds = (Int.MaxValue - 8) & ~1

  /** Build from an undirected edge list over arbitrary Long ids.
    *
    * Self-loops are dropped; duplicate/reversed edges collapse. Vertices
    * with no surviving edge only appear if listed in `extraVertices`.
    *
    * An open-addressing hash gives each distinct endpoint an index as the
    * edges stream in; only those n ids are sorted, and each endpoint is
    * renamed to its id's rank. Two counting sorts then place both
    * directions of every edge: the first in input order, the second by
    * reading the first's slices in vertex order, so every slice fills in
    * increasing order and a repeated edge arrives right after itself, where
    * it is dropped. (Against sorting each slice after the first pass, or an
    * LSD radix sort of packed (u, v) keys, the second counting sort was the
    * fastest on the benchmark's stand-ins.)
    *
    * @throws IllegalArgumentException when the two endpoints of every
    *         non-loop input edge would not fit one array, or when there are
    *         more than 2^29 distinct ids
    */
  def fromEdges(edgeList: IterableOnce[(Long, Long)],
                extraVertices: IterableOnce[Long] = Nil): LocalGraph = {
    val index = new IdIndex
    // the endpoints of the non-loop edges, two per edge, as first-seen indices
    var ends = new Array[Int](64)
    var k    = 0
    val it   = edgeList.iterator
    while (it.hasNext) {
      val e = it.next(); val a = e._1; val b = e._2
      if (a != b) {
        if (k == ends.length) {
          require(k < MaxEnds, s"more than ${MaxEnds / 2} edges: their endpoints do not fit one array")
          ends = java.util.Arrays.copyOf(ends, math.min(2L * k, MaxEnds.toLong).toInt)
        }
        ends(k) = index(a); ends(k + 1) = index(b); k += 2
      }
    }
    extraVertices.iterator.foreach(index(_))
    val n   = index.size
    val ids = java.util.Arrays.copyOf(index.ids, n)
    java.util.Arrays.sort(ids)
    val rank = new Array[Int](n)
    var v    = 0
    while (v < n) { rank(index(ids(v))) = v; v += 1 }
    var i = 0
    while (i < k) { ends(i) = rank(ends(i)); i += 1 }

    // both directions count towards each endpoint's slice
    val off = new Array[Int](n + 1)
    i = 0
    while (i < k) { off(ends(i) + 1) += 1; i += 1 }
    v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    // first pass: each endpoint into the other's slice, in input order
    val pos   = java.util.Arrays.copyOf(off, n)
    val first = new Array[Int](k)
    i = 0
    while (i < k) {
      val a = ends(i); val b = ends(i + 1)
      first(pos(a)) = b; pos(a) += 1
      first(pos(b)) = a; pos(b) += 1
      i += 2
    }
    // second pass: v into the slice of every u in v's first slice, for v in
    // increasing order, so every slice fills sorted and repeats arrive in a row
    val nbr = ends
    System.arraycopy(off, 0, pos, 0, n)
    v = 0
    while (v < n) {
      var j = off(v)
      while (j < off(v + 1)) {
        val u = first(j)
        if (pos(u) == off(u) || nbr(pos(u) - 1) != v) { nbr(pos(u)) = v; pos(u) += 1 }
        j += 1
      }
      v += 1
    }
    // close the gaps the repeats left
    var w = 0
    v = 0
    while (v < n) {
      val d = pos(v) - off(v)
      System.arraycopy(nbr, off(v), nbr, w, d)
      off(v) = w; w += d; v += 1
    }
    off(n) = w
    new LocalGraph(ids, off, if (w == nbr.length) nbr else java.util.Arrays.copyOf(nbr, w))
  }

  /** Open-addressing (linear probing) hash from external id to the order in
    * which it was first seen; `ids(0 until size)` lists them in that order.
    * The generators in [[repro.data.SynthGraphs]] keep their sampled vertex
    * pairs in one, as packed keys.
    */
  private[repro] final class IdIndex {
    private var shift = 64 - 4
    private var keys  = new Array[Long](1 << 4)
    private var slot  = new Array[Int](1 << 4) // 1 + the index of keys(i); 0 when empty
    var ids  = new Array[Long](8)
    var size = 0

    private def home(x: Long): Int = (((x ^ (x >>> 32)) * 0x9E3779B97F4A7C15L) >>> shift).toInt

    /** The index of `x`, given the next one if `x` is new. */
    def apply(x: Long): Int = {
      val mask = keys.length - 1
      var i    = home(x)
      while (slot(i) != 0) { if (keys(i) == x) return slot(i) - 1; i = (i + 1) & mask }
      if (size == ids.length) ids = java.util.Arrays.copyOf(ids, 2 * size)
      ids(size) = x; keys(i) = x; slot(i) = size + 1; size += 1
      if (2 * size > keys.length) grow()
      size - 1
    }

    /** Doubles the table, keeping its load at most one half. */
    private def grow(): Unit = {
      require(keys.length < (1 << 30), s"more than ${1 << 29} distinct vertex ids")
      shift -= 1
      keys = new Array[Long](2 * keys.length)
      slot = new Array[Int](keys.length)
      val mask = keys.length - 1
      var j    = 0
      while (j < size) {
        var i = home(ids(j))
        while (slot(i) != 0) i = (i + 1) & mask
        keys(i) = ids(j); slot(i) = j + 1
        j += 1
      }
    }
  }
}

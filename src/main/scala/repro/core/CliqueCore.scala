package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.collection.mutable

/** (k, Ψ)-core decomposition (Algorithm 3), generalized to any pattern.
  *
  * Instances of Ψ are stored once in one flat `Int` array with stride h
  * ([[Instances]]) and indexed per vertex in one CSR (an offset array of
  * n + 1 entries over one array of instance ids). The shared [[Peel]]
  * removes the live vertex of smallest (Ψ-degree, id); its live instances
  * die and their other members lose one degree each. Core
  * numbers are those of the paper's re-enumeration variant, with the same
  * worst-case complexity (see DESIGN.md "Deviations").
  *
  * The peel also records, for every prefix of removals, μ and the density of
  * the residual graph — this yields ρ' for CoreExact's Pruning 1 and the best
  * residual subgraph S* for PeelApp at no extra asymptotic cost.
  */
object CliqueCore {

  /** Decomposition output.
    *
    * @param core          clique-core number per local vertex id
    * @param order         vertices in peel (removal) order; their core
    *                      numbers never fall along it
    * @param totalInstances μ(G, Ψ)
    * @param bestInstances μ of the densest residual subgraph
    * @param bestSuffix    index into `order` such that order[bestSuffix..] is
    *                      the densest residual subgraph (PeelApp's S*)
    */
  final case class Result(core: Array[Long],
                          order: Array[Int],
                          totalInstances: Long,
                          bestInstances: Long,
                          bestSuffix: Int) {
    def kMax: Long = if (core.isEmpty) 0L else core.max

    /** ρ': max Ψ-density over all residual subgraphs. */
    def bestDensity: Double = bestResidual.density

    /** Vertices (local ids) of the (k, Ψ)-core, ascending. Core numbers
      * never fall along the peel order, so the core is a suffix of it. */
    def coreVertices(k: Long): Array[Int] = {
      var lo = 0
      var hi = order.length
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (core(order(mid)) >= k) hi = mid else lo = mid + 1 }
      val vs = java.util.Arrays.copyOfRange(order, lo, order.length)
      java.util.Arrays.sort(vs)
      vs
    }

    /** Vertices of the (k_max, Ψ)-core. */
    def kMaxCoreVertices: Array[Int] = coreVertices(kMax)

    /** Vertices of the densest residual subgraph (PeelApp's S*). */
    def bestResidualVertices: Array[Int] = order.drop(bestSuffix)

    /** The densest residual subgraph, μ as the peel counted it. */
    def bestResidual: Subgraph = Subgraph(bestResidualVertices, bestInstances)
  }

  /** Decompose `g` w.r.t. pattern `psi`, listed straight into the flat store. */
  def decompose(g: LocalGraph, psi: Pattern): Result = peel(g.n, instancesOf(g, psi))

  /** Decompose given pre-materialized instance arrays, copied into the flat
    * store first.
    *
    * @throws IllegalArgumentException as [[flatten]] and [[index]] do
    */
  def decomposeInstances(n: Int, instances: Array[Array[Int]]): Result = peel(n, flatten(instances))

  /** Instances of a pattern on `h` vertices in one flat array with stride h:
    * instance i holds `data(i * h until (i + 1) * h)`. The one instance
    * format from a pattern's listing to the flow network's groups.
    */
  private[core] final class Instances(val h: Int, val data: Array[Int], val count: Int) {

    /** The number of instances inside `vs`, a subset of 0 until n. */
    def countWithin(n: Int, vs: Array[Int]): Long = loads(n, Vector(vs))._1(0)

    /** `vs` with its μ. */
    def subgraph(n: Int, vs: Array[Int]): Subgraph = Subgraph(vs, countWithin(n, vs))

    /** One array per instance, in store order: what the network builder reads. */
    def toArrays: Array[Array[Int]] =
      Array.tabulate(count)(i => java.util.Arrays.copyOfRange(data, i * h, (i + 1) * h))

    /** The part of instance i if all its vertices lie in one, else -1. */
    private def partOf(part: Array[Int], i: Int): Int = {
      if (h == 0) return -1
      val end = (i + 1) * h
      var p   = part(data(i * h))
      var j   = i * h + 1
      while (p >= 0 && j < end) { if (part(data(j)) != p) p = -1; j += 1 }
      p
    }

    /** One pass for disjoint vertex sets `parts` of 0 until n: per part, μ
      * (its instances, those whose vertices all lie in it) and its largest
      * load (the most of its instances that one of its vertices lies in).
      *
      * @throws IllegalArgumentException as [[partition]] does
      */
    def loads(n: Int, parts: IndexedSeq[Array[Int]]): (Array[Long], Array[Long]) = {
      val part = label(n, parts)._1
      val mu   = new Array[Long](parts.length)
      val max  = new Array[Long](parts.length)
      val load = new Array[Int](n)
      var i    = 0
      while (i < count) {
        val p = partOf(part, i)
        if (p >= 0) {
          mu(p) += 1
          var j = i * h
          while (j < (i + 1) * h) { val v = data(j); load(v) += 1; if (load(v) > max(p)) max(p) = load(v); j += 1 }
        }
        i += 1
      }
      (mu, max)
    }

    /** Two passes for disjoint vertex sets `parts` of 0 until n: part p gets
      * its instances in store order, renumbered to positions in parts(p),
      * each sorted within its stride.
      *
      * @throws IllegalArgumentException if a part vertex is outside [0, n)
      *         or in two parts
      */
    def partition(n: Int, parts: IndexedSeq[Array[Int]]): Array[Instances] = {
      val (part, pos) = label(n, parts)
      val of   = new Array[Int](count) // the part of each instance, or -1
      val size = new Array[Int](parts.length)
      var i    = 0
      while (i < count) { of(i) = partOf(part, i); if (of(i) >= 0) size(of(i)) += 1; i += 1 }
      val out = size.map(c => new Array[Int](c * h))
      val at  = new Array[Int](parts.length)
      i = 0
      while (i < count) {
        val p = of(i)
        if (p >= 0) {
          val a = at(p)
          var j = 0
          while (j < h) { out(p)(a + j) = pos(data(i * h + j)); j += 1 }
          java.util.Arrays.sort(out(p), a, a + h)
          at(p) = a + h
        }
        i += 1
      }
      Array.tabulate(parts.length)(p => new Instances(h, out(p), size(p)))
    }

    /** The instances inside `vs`, renumbered to positions in `vs`, each sorted. */
    def restrict(n: Int, vs: Array[Int]): Instances = partition(n, Vector(vs))(0)
  }

  /** Part and position in it of every vertex of 0 until n in one of the
    * disjoint `parts`; part -1 for the others. */
  private def label(n: Int, parts: IndexedSeq[Array[Int]]): (Array[Int], Array[Int]) = {
    val part = new Array[Int](n)
    val pos  = new Array[Int](n)
    java.util.Arrays.fill(part, -1)
    var p    = 0
    while (p < parts.length) {
      val vs = parts(p)
      var i  = 0
      while (i < vs.length) {
        val v = vs(i)
        if (v < 0 || v >= n) throw new IllegalArgumentException(s"part vertex $v is outside [0, $n)")
        if (part(v) >= 0) throw new IllegalArgumentException(s"vertex $v is in parts ${part(v)} and $p")
        part(v) = p; pos(v) = i
        i += 1
      }
      p += 1
    }
    (part, pos)
  }

  /** Collects instances of h >= 1 vertices in fixed-size chunks, then
    * copies them once into the flat array: growing one array by doubling
    * would copy and zero it again at every step.
    */
  private final class Collector(h: Int) extends (Array[Int] => Unit) {
    private val chunkLen = math.max(1, (1 << 16) / h) * h
    private val full     = mutable.ArrayBuffer.empty[Array[Int]]
    private var chunk    = new Array[Int](chunkLen)
    private var at       = 0

    def apply(inst: Array[Int]): Unit = {
      if (at == chunkLen) {
        if ((full.length + 2L) * chunkLen > Int.MaxValue - 8)
          throw new IllegalArgumentException(
            s"more than ${(full.length + 1L) * chunkLen} vertex-instance incidences do not fit one array")
        full += chunk
        chunk = new Array[Int](chunkLen)
        at = 0
      }
      var i = 0
      while (i < h) { chunk(at) = inst(i); at += 1; i += 1 }
    }

    def result(): Instances = {
      val data = new Array[Int](full.length * chunkLen + at)
      var o    = 0
      full.foreach { c => System.arraycopy(c, 0, data, o, chunkLen); o += chunkLen }
      System.arraycopy(chunk, 0, data, o, at)
      new Instances(h, data, data.length / h)
    }
  }

  /** The instances of `psi` in `g`, collected from its listing's reused
    * emit buffer.
    */
  private[core] def instancesOf(g: LocalGraph, psi: Pattern): Instances = {
    val c = new Collector(psi.numVertices)
    psi.forEach(g)(c)
    c.result()
  }

  /** The flat copy of an instance list.
    *
    * @throws IllegalArgumentException if the instances differ in size or do
    *         not fit one array
    */
  private[core] def flatten(instances: Array[Array[Int]]): Instances = {
    val h     = if (instances.isEmpty) 0 else instances(0).length
    val total = instances.length.toLong * h
    if (total > Int.MaxValue - 8)
      throw new IllegalArgumentException(s"$total vertex-instance incidences do not fit one array")
    val data = new Array[Int](total.toInt)
    var at   = 0
    var i    = 0
    while (i < instances.length) {
      val inst = instances(i)
      if (inst.length != h)
        throw new IllegalArgumentException(s"instance $i has ${inst.length} vertices, instance 0 has $h")
      var j = 0
      while (j < h) { data(at) = inst(j); at += 1; j += 1 }
      i += 1
    }
    new Instances(h, data, instances.length)
  }

  /** The peel engine: removing u kills u's live instances, and each of
    * their other members loses one degree.
    */
  private[core] def peel(n: Int, s: Instances): Result = {
    val (off, ids) = index(n, s)
    val deg = new Array[Long](n)
    var v   = 0
    while (v < n) { deg(v) = off(v + 1) - off(v); v += 1 }

    val h    = s.h
    val data = s.data
    val dead = new Array[Boolean](s.count)
    new Peel(deg) {
      protected def removed(u: Int): Unit = {
        var i = off(u)
        while (i < off(u + 1)) {
          val id = ids(i)
          if (!dead(id)) {
            dead(id) = true
            // a live instance has only live members
            var j = id * h
            while (j < (id + 1) * h) { if (data(j) != u) lower(data(j), 1); j += 1 }
          }
          i += 1
        }
      }
    }.run(s.count.toLong)
  }

  /** Vertex → instance index as one CSR: the ids of the instances that hold
    * v are `ids(off(v) until off(v + 1))`, in increasing order.
    *
    * @throws IllegalArgumentException if n < 0, or an instance holds a vertex
    *         outside [0, n) or repeats a vertex
    */
  private[core] def index(n: Int, s: Instances): (Array[Int], Array[Int]) = {
    if (n < 0) throw new IllegalArgumentException(s"vertex count $n is negative")
    val h    = s.h
    val data = s.data
    // off(v) counts v's instances, then becomes the end of v's slice of ids
    // and, after the fill, its start
    val off = new Array[Int](n + 1)
    var id  = 0
    while (id < s.count) {
      val base = id * h
      var i    = base
      while (i < base + h) {
        val v = data(i)
        if (v < 0 || v >= n)
          throw new IllegalArgumentException(s"instance $id holds vertex $v outside [0, $n)")
        var j = base
        while (j < i) {
          if (data(j) == v) throw new IllegalArgumentException(s"instance $id repeats vertex $v")
          j += 1
        }
        off(v) += 1
        i += 1
      }
      id += 1
    }
    var v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    val ids = new Array[Int](s.count * h)
    id = s.count - 1
    while (id >= 0) {
      var i = id * h
      while (i < (id + 1) * h) { val w = data(i); off(w) -= 1; ids(off(w)) = id; i += 1 }
      id -= 1
    }
    (off, ids)
  }
}

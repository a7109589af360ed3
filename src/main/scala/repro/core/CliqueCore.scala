package repro.core

import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.collection.mutable

/** (k, Ψ)-core decomposition (Algorithm 3) over a store of instances,
  * generalized to any pattern: the store peel. CoreExact and QueryDensest
  * peel here because they go on to read the same store's loads, partitions
  * and networks. The approximations' peels keep no store
  * ([[repro.patterns.SpecialCores.decompose]]): for h-cliques they list
  * again through each removed vertex, as the paper writes Algorithm 3.
  *
  * Instances of Ψ are stored once in one flat `Int` array with stride h
  * ([[Instances]]), which also carries its vertex range n and each vertex's
  * Ψ-degree, counted and checked as the store is filled. The per-vertex
  * index is one CSR (an offset array of n + 1 entries over one array of
  * instance ids), laid out by a prefix sum of those degrees and one fill
  * pass. The shared [[Peel]] removes the live vertex of smallest
  * (Ψ-degree, id); its live instances die, and each other member loses
  * them all in one update. Core numbers, and every other result field, are
  * those of the peel that lists again, with the same worst-case complexity
  * (see DESIGN.md "Deviations").
  *
  * The peel also records, for every prefix of removals, μ and the density of
  * the residual graph — ρ' for CoreExact's Pruning 1, PeelApp's S* and μ of
  * IncApp's (k_max, Ψ)-core at no extra asymptotic cost.
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
    * @param kMaxInstances μ of the (k_max, Ψ)-core
    */
  final case class Result(core: Array[Long],
                          order: Array[Int],
                          totalInstances: Long,
                          bestInstances: Long,
                          bestSuffix: Int,
                          kMaxInstances: Long) {
    def kMax: Long = if (core.isEmpty) 0L else core.max

    /** ρ': max Ψ-density over all residual subgraphs. */
    def bestDensity: Double = bestResidual.density

    /** Vertices (local ids) of the (k, Ψ)-core, ascending. Core numbers
      * never fall along the peel order, so the core is a suffix of it. */
    def coreVertices(k: Long): Array[Int] = KCore.suffix(order, core(_) >= k)

    /** Vertices of the (k_max, Ψ)-core. */
    def kMaxCoreVertices: Array[Int] = coreVertices(kMax)

    /** The (k_max, Ψ)-core (IncApp's answer), μ as the peel counted it. */
    def kMaxCore: Subgraph = Subgraph(kMaxCoreVertices, kMaxInstances)

    /** Vertices of the densest residual subgraph (PeelApp's S*). */
    def bestResidualVertices: Array[Int] = order.drop(bestSuffix)

    /** The densest residual subgraph, μ as the peel counted it. */
    def bestResidual: Subgraph = Subgraph(bestResidualVertices, bestInstances)
  }

  /** Decompose `g` w.r.t. pattern `psi`, listed straight into the flat store. */
  def decompose(g: LocalGraph, psi: Pattern): Result = peel(instancesOf(g, psi))

  /** Decompose given pre-materialized instance arrays, copied into the flat
    * store first.
    *
    * @throws IllegalArgumentException as [[flatten]] does
    */
  def decomposeInstances(n: Int, instances: Array[Array[Int]]): Result = peel(flatten(n, instances))

  /** Instances of a pattern on `h` vertices of 0 until n in one flat array
    * with stride h: instance i holds `data(i * h until (i + 1) * h)`, and
    * `degrees(v)` is the number of instances holding v (its Ψ-degree; n is
    * its length). The one instance format from a pattern's listing to the
    * flow network's groups.
    */
  private[core] final class Instances(val h: Int, val data: Array[Int], val count: Int, val degrees: Array[Int]) {
    def n: Int = degrees.length

    /** The number of instances inside `vs`, a subset of 0 until n. */
    def countWithin(vs: Array[Int]): Long = loads(Vector(vs))._1(0)

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
    def loads(parts: IndexedSeq[Array[Int]]): (Array[Long], Array[Long]) = {
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
      * each sorted within its stride, with their degrees.
      *
      * @throws IllegalArgumentException if a part vertex is outside [0, n)
      *         or in two parts
      */
    def partition(parts: IndexedSeq[Array[Int]]): Array[Instances] = {
      val (part, pos) = label(n, parts)
      val of   = new Array[Int](count) // the part of each instance, or -1
      val size = new Array[Int](parts.length)
      var i    = 0
      while (i < count) { of(i) = partOf(part, i); if (of(i) >= 0) size(of(i)) += 1; i += 1 }
      val out = size.map(c => new Array[Int](c * h))
      val deg = parts.map(vs => new Array[Int](vs.length))
      val at  = new Array[Int](parts.length)
      i = 0
      while (i < count) {
        val p = of(i)
        if (p >= 0) {
          val a = at(p)
          var j = 0
          while (j < h) { val q = pos(data(i * h + j)); out(p)(a + j) = q; deg(p)(q) += 1; j += 1 }
          java.util.Arrays.sort(out(p), a, a + h)
          at(p) = a + h
        }
        i += 1
      }
      Array.tabulate(parts.length)(p => new Instances(h, out(p), size(p), deg(p)))
    }

    /** The instances inside `vs`, renumbered to positions in `vs`, each sorted. */
    def restrict(vs: Array[Int]): Instances = partition(Vector(vs))(0)
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

  /** The one path into a store: collects instances of h vertices of 0
    * until n in fixed-size chunks, checking each and counting each vertex's
    * instances as it copies them, then copies the chunks once into the flat
    * array: growing one array by doubling would copy and zero it again at
    * every step.
    *
    * @throws IllegalArgumentException if n < 0, an instance does not have h
    *         vertices, holds a vertex outside [0, n) or repeats one, or the
    *         instances do not fit one array
    */
  private final class Collector(n: Int, h: Int) extends (Array[Int] => Unit) {
    if (n < 0) throw new IllegalArgumentException(s"vertex count $n is negative")
    private val chunkLen = math.max(1, (1 << 16) / math.max(1, h)) * math.max(1, h)
    private val full     = mutable.ArrayBuffer.empty[Array[Int]]
    private val deg      = new Array[Int](n)
    private var chunk    = new Array[Int](chunkLen)
    private var at       = 0
    private var count    = 0

    def apply(inst: Array[Int]): Unit = {
      if (inst.length != h)
        throw new IllegalArgumentException(s"instance $count has ${inst.length} vertices, not $h")
      if (at == chunkLen) nextChunk()
      // sorted, as listings emit them: in range and strictly increasing means
      // no vertex outside [0, n) and none repeated
      var ok = h > 0 && inst(0) >= 0 && inst(h - 1) < n
      var i  = 1
      while (ok && i < h) { ok = inst(i - 1) < inst(i); i += 1 }
      i = 0
      while (i < h) {
        val v = inst(i)
        if (!ok) {
          if (v < 0 || v >= n) throw new IllegalArgumentException(s"instance $count holds vertex $v outside [0, $n)")
          var j = 0
          while (j < i) {
            if (inst(j) == v) throw new IllegalArgumentException(s"instance $count repeats vertex $v")
            j += 1
          }
        }
        chunk(at + i) = v
        deg(v) += 1
        i += 1
      }
      at += h
      count += 1
    }

    private def nextChunk(): Unit = {
      if ((full.length + 2L) * chunkLen > Int.MaxValue - 8)
        throw new IllegalArgumentException(
          s"more than ${(full.length + 1L) * chunkLen} vertex-instance incidences do not fit one array")
      full += chunk
      chunk = new Array[Int](chunkLen)
      at = 0
    }

    def result(): Instances = {
      val data = new Array[Int](full.length * chunkLen + at)
      var o    = 0
      full.foreach { c => System.arraycopy(c, 0, data, o, chunkLen); o += chunkLen }
      System.arraycopy(chunk, 0, data, o, at)
      new Instances(h, data, count, deg)
    }
  }

  /** The instances of `psi` in `g`, collected from its listing's reused
    * emit buffer.
    */
  private[core] def instancesOf(g: LocalGraph, psi: Pattern): Instances = {
    val c = new Collector(g.n, psi.numVertices)
    psi.forEach(g)(c)
    c.result()
  }

  /** The flat copy of an instance list over 0 until n, through the same
    * [[Collector]] as a listing; h is the size of the first instance, 0 for
    * an empty list.
    *
    * @throws IllegalArgumentException as the [[Collector]] does
    */
  private[core] def flatten(n: Int, instances: Array[Array[Int]]): Instances = {
    val c = new Collector(n, if (instances.isEmpty) 0 else instances(0).length)
    instances.foreach(c)
    c.result()
  }

  /** The peel engine: removing u kills u's live instances, and each of
    * their other members w loses them all in one update, summed in loss(w)
    * over a touched list.
    */
  private[core] def peel(s: Instances): Result = {
    val (off, ids) = index(s)
    val n   = s.n
    val deg = new Array[Long](n)
    var v   = 0
    while (v < n) { deg(v) = s.degrees(v); v += 1 }

    val h    = s.h
    val data = s.data
    val dead = new Array[Boolean](s.count)
    val loss = new Array[Int](n) // what each vertex loses with the current removal
    val hit  = new Array[Int](n) // the vertices with loss > 0
    new Peel(deg) {
      protected def removed(u: Int): Unit = {
        var hits = 0
        var i    = off(u)
        while (i < off(u + 1)) {
          val id = ids(i)
          if (!dead(id)) {
            dead(id) = true
            // a live instance has only live members
            var j = id * h
            while (j < (id + 1) * h) {
              val w = data(j)
              if (w != u) { if (loss(w) == 0) { hit(hits) = w; hits += 1 }; loss(w) += 1 }
              j += 1
            }
          }
          i += 1
        }
        while (hits > 0) { hits -= 1; val w = hit(hits); lower(w, loss(w)); loss(w) = 0 }
      }
    }.run(s.count.toLong)
  }

  /** Vertex → instance index as one CSR: the ids of the instances that hold
    * v are `ids(off(v) until off(v + 1))`, in increasing order. The store's
    * degrees give the offsets; one pass fills the ids.
    */
  private[core] def index(s: Instances): (Array[Int], Array[Int]) = {
    val n    = s.n
    val h    = s.h
    val data = s.data
    // off(v) is the end of v's slice of ids and, after the fill, its start
    val off = new Array[Int](n + 1)
    var end = 0
    var v   = 0
    while (v < n) { end += s.degrees(v); off(v) = end; v += 1 }
    off(n) = end
    val ids = new Array[Int](s.count * h)
    var id  = s.count - 1
    while (id >= 0) {
      var i = id * h
      while (i < (id + 1) * h) { val w = data(i); off(w) -= 1; ids(off(w)) = id; i += 1 }
      id -= 1
    }
    (off, ids)
  }
}

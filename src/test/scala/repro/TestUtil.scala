package repro

import repro.core.{CliqueCore, Densest, Subgraph}
import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.collection.mutable
import scala.util.Random

/** Shared helpers for the test suites. */
object TestUtil {

  /** A copy of the neighbour slice of `v` in `g`. */
  def adj(g: LocalGraph, v: Int): Array[Int] = java.util.Arrays.copyOfRange(g.nbr, g.off(v), g.off(v + 1))

  /** The largest degree in `g`, 0 for the empty graph. */
  def maxDegree(g: LocalGraph): Int = (0 until g.n).map(g.degree).maxOption.getOrElse(0)

  /** The Example-5 exemplar (Figure 5 of the paper), built to its spec:
    * S1 = 7 vertices / 15 edges, the EDS (density 15/7, a 3-core);
    * S2 = K5, the k_max-core (k_max = 4, density 2 < 15/7);
    * S3 = S1 ∪ S2 (the 3-core, 12 vertices / 25 edges, ρ' = 25/12);
    * plus a sparse tail so G ⊋ S3.
    * Demonstrates that the k_max-core is NOT the EDS.
    */
  def figure5: LocalGraph = {
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    // S1: vertices 0..6 — wheel (center 0, cycle 1..6) + 3 chords among the
    // odd spokes = 15 edges; min degree 3 and max core 3 (the even spokes
    // keep degree 3, so S1 is NOT a 4-core and k_max stays at the K5).
    for (i <- 1 to 6) edges += ((0L, i.toLong))
    for (i <- 1 to 6) edges += ((i.toLong, if (i == 6) 1L else (i + 1).toLong))
    edges += ((1L, 3L)); edges += ((3L, 5L)); edges += ((5L, 1L))
    // S2: K5 on vertices 7..11 (10 edges).
    for (i <- 7 to 11; j <- (i + 1) to 11) edges += ((i.toLong, j.toLong))
    // sparse tail: path 12-13-14, attached to both blobs with degree-1/2 vertices
    edges += ((12L, 13L)); edges += ((13L, 14L))
    edges += ((12L, 0L)); edges += ((14L, 7L))
    LocalGraph.fromEdges(edges)
  }

  /** The edges of `p` over its vertices 0 until p.numVertices. */
  private def patternEdges(p: Pattern): Seq[(Int, Int)] = p match {
    case Pattern.Clique(h)      => for (i <- 0 until h; j <- (i + 1) until h) yield (i, j)
    case Pattern.Star(x)        => (1 to x).map(i => (0, i))
    case Pattern.Diamond        => Seq((0, 1), (1, 2), (2, 3), (3, 0))
    case Pattern.TwoTriangle    => Seq((0, 1), (0, 2), (1, 2), (0, 3), (1, 3))
    case Pattern.Path4          => Seq((0, 1), (1, 2), (2, 3))
    case Pattern.TailedTriangle => Seq((0, 1), (1, 2), (0, 2), (2, 3))
  }

  /** Reference lister, the correctness reference for the pattern listings:
    * every instance of `p` in `g` as a sorted vertex array, found by
    * VF2-style backtracking over `p`'s edge list and kept once per edge set.
    */
  def generic(p: Pattern)(g: LocalGraph): Array[Array[Int]] = {
    val pEdges = patternEdges(p)
    val np     = p.numVertices
    val pAdj: Array[Array[Int]] = {
      val b = Array.fill(np)(mutable.Set.empty[Int])
      pEdges.foreach { case (a, c) => b(a) += c; b(c) += a }
      b.map(_.toArray.sorted)
    }
    // visit order: each pattern vertex after the first touches an earlier one
    val visitOrder: Array[Int] = {
      val order = mutable.ArrayBuffer(0)
      val seen  = mutable.Set(0)
      while (order.size < np) {
        val next = (0 until np).find(v => !seen(v) && pAdj(v).exists(seen)).get
        order += next; seen += next
      }
      order.toArray
    }
    val found = mutable.HashMap.empty[Seq[Long], Array[Int]]
    val map   = Array.fill(np)(-1)
    val used  = mutable.Set.empty[Int]

    def edgeKey(a: Int, b: Int): Long =
      if (a < b) (a.toLong << 32) | b.toLong else (b.toLong << 32) | a.toLong

    def rec(i: Int): Unit =
      if (i == np) {
        val key = pEdges.map { case (a, c) => edgeKey(map(a), map(c)) }.sorted
        if (!found.contains(key)) found(key) = map.clone().sorted
      } else {
        val pv      = visitOrder(i)
        val anchors = pAdj(pv).filter(map(_) >= 0)
        val candidates: Iterable[Int] =
          if (anchors.isEmpty) 0 until g.n else adj(g, map(anchors.head)).toSeq
        for (gv <- candidates if !used(gv)) {
          if (anchors.forall(a => g.hasEdge(map(a), gv))) {
            map(pv) = gv; used += gv
            rec(i + 1)
            map(pv) = -1; used -= gv
          }
        }
      }
    rec(0)
    found.values.toArray
  }

  /** Deterministic G(n, p) random graph. */
  def randomGraph(n: Int, p: Double, seed: Long): LocalGraph = {
    val rnd   = new Random(seed)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    for (u <- 0 until n; v <- (u + 1) until n if rnd.nextDouble() < p)
      edges += ((u.toLong, v.toLong))
    LocalGraph.fromEdges(edges, (0L until n.toLong))
  }

  /** Complete graph K_n. */
  def complete(n: Int): LocalGraph =
    LocalGraph.fromEdges(for (u <- 0 until n; v <- (u + 1) until n)
      yield (u.toLong, v.toLong))

  /** Path graph P_n (n vertices, n-1 edges). */
  def path(n: Int): LocalGraph =
    LocalGraph.fromEdges((0 until n - 1).map(i => (i.toLong, (i + 1).toLong)))

  /** Cycle C_n. */
  def cycle(n: Int): LocalGraph =
    LocalGraph.fromEdges((0 until n).map(i => (i.toLong, ((i + 1) % n).toLong)))

  /** Star with `tails` leaves (center = 0). */
  def star(tails: Int): LocalGraph =
    LocalGraph.fromEdges((1 to tails).map(i => (0L, i.toLong)))

  /** Reference (k, Ψ)-core by definition: iteratively delete vertices whose
    * Ψ-degree (recomputed on the induced residual) is below k, to fixpoint.
    * Returns surviving local ids of `g`.
    */
  def bruteCoreVertices(g: LocalGraph, psi: Pattern, k: Long): Set[Int] = {
    var keep = (0 until g.n).toSet
    var changed = true
    while (changed && keep.nonEmpty) {
      val sub  = g.induced(keep)
      val deg  = psi.degrees(sub)
      val bad  = sub.ids.indices.filter(i => deg(i) < k).map(i => sub.ids(i)).toSet
      if (bad.isEmpty) changed = false
      else {
        // sub.ids are g's external ids; map back to g-local ids
        val extToLocal = (0 until g.n).map(v => g.ids(v) -> v).toMap
        keep = keep -- bad.map(extToLocal)
      }
    }
    keep
  }

  /** Brute-force densest subgraph for tiny graphs (n <= 20): enumerate every
    * non-empty vertex subset.
    */
  def bruteForce(g: LocalGraph, psi: Pattern): Subgraph = {
    require(g.n <= 20, s"brute force limited to n<=20, got ${g.n}")
    val inst = psi.instances(g)
    var best = Subgraph(Array(0), 0L)
    val mask = new Array[Boolean](g.n)
    var bits = 1
    val lim  = 1 << g.n
    while (bits < lim) {
      java.util.Arrays.fill(mask, false)
      var sz = 0
      var b  = 0
      while (b < g.n) {
        if ((bits & (1 << b)) != 0) { mask(b) = true; sz += 1 }
        b += 1
      }
      var mu = 0L
      var k  = 0
      while (k < inst.length) {
        var i = 0
        while (i < inst(k).length && mask(inst(k)(i))) i += 1
        if (i == inst(k).length) mu += 1
        k += 1
      }
      if (mu.toDouble / sz > best.density) best = Subgraph((0 until g.n).filter(mask).toArray, mu)
      bits += 1
    }
    best
  }

  /** Brute-force reference for tiny graphs: densest subset containing Q. */
  def bruteForce(g: LocalGraph, psi: Pattern, query: Set[Int]): Subgraph = {
    require(g.n <= 20)
    val inst = psi.instances(g)
    var best: Subgraph = null
    val lim = 1 << g.n
    var bits = 0
    while (bits < lim) {
      if (query.forall(q => (bits & (1 << q)) != 0)) {
        val s  = (0 until g.n).filter(b => (bits & (1 << b)) != 0).toArray
        if (s.nonEmpty) {
          val sg = Densest.subgraphOf(inst, g.n, s)
          if (best == null || sg.density > best.density) best = sg
        }
      }
      bits += 1
    }
    best
  }

  /** Reference (k, Ψ)-peel, O(n · |instances|): at each step recount every
    * live vertex's Ψ-degree over the live instances and remove the one with
    * the smallest (degree, id); an instance dies with its first removed
    * member. μ of the (k_max, Ψ)-core is recounted at the end over the
    * instances whose members all have core number k_max.
    */
  def referencePeel(n: Int, instances: Array[Array[Int]]): CliqueCore.Result = {
    val alive       = Array.fill(n)(true)
    val instAlive   = Array.fill(instances.length)(true)
    val core        = new Array[Long](n)
    val order       = new Array[Int](n)
    var mu          = instances.length.toLong
    var k           = 0L
    var bestDensity = if (n == 0) 0.0 else mu.toDouble / n
    var bestMu      = mu
    var bestSuffix  = 0
    for (step <- 0 until n) {
      val deg = new Array[Long](n)
      for (i <- instances.indices if instAlive(i); v <- instances(i)) deg(v) += 1
      val u = (0 until n).filter(alive).minBy(v => (deg(v), v))
      k = math.max(k, deg(u))
      core(u) = k
      order(step) = u
      alive(u) = false
      for (i <- instances.indices if instAlive(i) && instances(i).contains(u)) {
        instAlive(i) = false
        mu -= 1
      }
      val remaining = n - step - 1
      if (remaining > 0 && mu.toDouble / remaining > bestDensity) {
        bestDensity = mu.toDouble / remaining
        bestMu = mu
        bestSuffix = step + 1
      }
    }
    val kMax   = core.maxOption.getOrElse(0L)
    val kMaxMu = instances.count(_.forall(core(_) >= kMax)).toLong
    CliqueCore.Result(core, order, instances.length.toLong, bestMu, bestSuffix, kMaxMu)
  }

  /** Every field of a peel's result, for comparing two peels whole. */
  def peelFields(r: CliqueCore.Result): (Seq[Long], Seq[Int], Int, Long, Long, Long) =
    (r.core.toSeq, r.order.toSeq, r.bestSuffix, r.bestInstances, r.totalInstances, r.kMaxInstances)

  /** The most instances one removal of a peel in `order` kills that hold
    * the same other vertex: an instance dies with its first removed member. */
  def maxHits(order: Array[Int], instances: Array[Array[Int]]): Int = {
    val rank = new Array[Int](order.length)
    order.indices.foreach(i => rank(order(i)) = i)
    instances.groupBy(_.minBy(rank(_))).map { case (u, killed) =>
      killed.flatMap(_.filter(_ != u)).groupBy(identity).values.map(_.length).max
    }.maxOption.getOrElse(0)
  }

  /** Asserts that `f` throws an ArithmeticException whose message names `what`. */
  def refused(what: String)(f: => Any): Unit = {
    import org.scalatest.Assertions.{assert, intercept}
    val e = intercept[ArithmeticException](f)
    assert(e.getMessage.contains(what), e.getMessage)
  }

  /** Two adjacent hubs 0 and 1, each joined to all of `leaves` leaves, which
    * form a cycle: every leaf and leaf edge lies in triangles with both hubs. */
  def twoHubs(leaves: Int): LocalGraph =
    LocalGraph.fromEdges(Seq((0L, 1L)) ++ (2 until leaves + 2).flatMap { l =>
      Seq((0L, l.toLong), (1L, l.toLong), (l.toLong, (2 + (l - 1) % leaves).toLong))
    })

  /** Reference h-clique listing (h >= 2) in the kernel's emission order:
    * the plain kClist recursion, with out-lists of the degeneracy order
    * sorted by id, a fresh merge-intersection per extension and every
    * clique emitted sorted.
    */
  def referenceCliques(g: LocalGraph, h: Int): Array[Array[Int]] = {
    val rank = repro.core.KCore.decompose(g).rank
    val out  = Array.tabulate(g.n)(v => adj(g, v).filter(w => rank(w) > rank(v)))
    val res  = mutable.ArrayBuffer.empty[Array[Int]]
    val clique = new Array[Int](h)
    def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
      val r = mutable.ArrayBuilder.make[Int]
      var i = 0; var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) < b(j)) i += 1
        else if (a(i) > b(j)) j += 1
        else { r += a(i); i += 1; j += 1 }
      }
      r.result()
    }
    def rec(depth: Int, cand: Array[Int]): Unit =
      if (depth == h) res += clique.sorted
      else if (cand.length >= h - depth)
        cand.foreach { u =>
          clique(depth) = u
          rec(depth + 1, if (depth + 1 == h) Array.emptyIntArray else intersect(cand, out(u)))
        }
    for (v <- 0 until g.n) { clique(0) = v; rec(1, out(v)) }
    res.toArray
  }

  /** Reference diamond (C4) instances, O(n² · d log d): for every vertex pair
    * {u, v}, each pair {a, b} of common neighbors closes the cycle u-a-v-b;
    * a cycle is found from both of its diagonals and kept once per edge set.
    */
  def naiveDiamonds(g: LocalGraph): Array[Array[Int]] = {
    val seen = mutable.HashMap.empty[Set[(Int, Int)], Array[Int]]
    def e(x: Int, y: Int) = (math.min(x, y), math.max(x, y))
    for (u <- 0 until g.n; v <- (u + 1) until g.n) {
      val cs = adj(g, u).filter(g.hasEdge(v, _))
      for (i <- cs.indices; j <- (i + 1) until cs.length) {
        val (a, b) = (cs(i), cs(j))
        seen.getOrElseUpdate(Set(e(u, a), e(a, v), e(v, b), e(b, u)), Array(u, v, a, b).sorted)
      }
    }
    seen.values.toArray
  }
}

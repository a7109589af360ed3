package repro.flow

import repro.patterns.Pattern

/** Flow-network construction for the densest-subgraph binary search.
  *
  * Implements the Algorithm-1 network (one node per instance) and the
  * `construct+` network (Algorithm 7: one node per GROUP of instances
  * sharing a vertex set, edge capacities scaled by |g|) — by Lemma 12 both
  * have the same min-st-cut capacity. CoreExact and QueryDensest group as
  * [[grouping]] says; Exact, the paper's baseline, builds the ungrouped one.
  * No algorithm prunes nodes by Lemma 8; [[pruneLemma8]] and [[build]]
  * serve only the benchmark's flow probe.
  *
  * A [[Network]] is built once per vertex set and probed at many guesses α:
  * only the v→t capacities (α·h) depend on α (the premise of parametric
  * flow, Gallo, Grigoriadis & Tarjan 1989), so a probe rewrites those and
  * restores the rest; the flow is not warm-started. Pinned vertices (the
  * query variant of Section 6.3) get an s→v arc no minimum cut crosses.
  *
  * Vertices here are dense ids 0..nVerts-1 of the (sub)graph the network is
  * built on; callers remap from LocalGraph ids.
  */
object DensestFlow {

  /** A group of pattern instances sharing one vertex set.
    *
    * @param verts sorted vertex ids (size = |V_Ψ|)
    * @param mult  |g|: how many distinct edge-set instances share `verts`
    *              (always 1 for cliques)
    */
  final case class Group(verts: Array[Int], mult: Int)

  /** Group raw instances by vertex set (construct+ line 2), in order of first
    * occurrence; a group's `verts` is its first instance.
    */
  def group(instances: Array[Array[Int]]): Array[Group] = {
    val mask   = Integer.highestOneBit(math.max(1, instances.length) * 2) * 2 - 1
    val slots  = Array.fill(mask + 1)(-1)          // open addressing: slot -> group id
    val first  = new Array[Int](instances.length)  // group id -> its first instance
    val mult   = new Array[Int](instances.length)
    var groups = 0
    instances.indices.foreach { i =>
      val x = java.util.Arrays.hashCode(instances(i)) * 0x9E3779B9
      var p = (x ^ (x >>> 16)) & mask
      while (slots(p) >= 0 && !java.util.Arrays.equals(instances(first(slots(p))), instances(i))) p = (p + 1) & mask
      if (slots(p) < 0) { slots(p) = groups; first(groups) = i; groups += 1 }
      mult(slots(p)) += 1
    }
    Array.tabulate(groups)(gi => Group(instances(first(gi)), mult(gi)))
  }

  /** One group per instance — the ungrouped Algorithm-1 baseline network. */
  def ungrouped(instances: Array[Array[Int]]): Array[Group] = instances.map(Group(_, 1))

  /** [[group]] for every pattern but h-cliques, whose vertex sets never
    * repeat, so grouping them would find nothing: they stay [[ungrouped]]. */
  def grouping(psi: Pattern): Array[Array[Int]] => Array[Group] =
    if (psi.isInstanceOf[Pattern.Clique]) ungrouped else group

  /** Conservative Lemma-8 pruning: drop a group's node when removing its
    * vertices provably INCREASES the density of the residual graph. We lower
    * bound μ(G') by μ(G) − Σ_{v∈ψ} deg(v, Ψ) (union bound), so everything
    * pruned here is pruned by Lemma 8; the flow network stays correct because
    * s→v capacities are recomputed from the retained groups (Appendix C.3).
    * A group whose vertices all have Ψ-degree ≥ μ/n is never pruned, since
    * then μ − Σ deg(v) ≤ (n − h)·μ/n. CoreExact does not call it: inside
    * its (k, Ψ)-cores it pruned no group (DESIGN.md deviation 9). It stays
    * for the benchmark's flow probe.
    */
  def pruneLemma8(nVerts: Int, groups: Array[Group], h: Int): Array[Group] = {
    if (nVerts <= h) return groups
    val deg = new Array[Long](nVerts)
    var mu  = 0L
    var k   = 0
    while (k < groups.length) {
      val g = groups(k)
      var i = 0
      while (i < g.verts.length) { deg(g.verts(i)) += g.mult; i += 1 }
      mu += g.mult
      k += 1
    }
    val rho = mu.toDouble / nVerts
    groups.filter { g =>
      var muLow = mu
      var i     = 0
      while (i < g.verts.length) { muLow -= deg(g.verts(i)); i += 1 }
      // keep unless density certainly increases after removing ψ's vertices
      !(muLow.toDouble / (nVerts - h) > rho)
    }
  }

  /** The network over `nVerts` vertices and `groups`, built once; [[at]]
    * sets it up for one guess α. Node layout: s = 0, vertices 1..nVerts,
    * groups nVerts+1.., t = last. Arcs: s→v (deg(v, Ψ), only for vertices in
    * some group or pinned), v→t (α·h) for every vertex, and per group member
    * u→g (|g|) and g→u (|g|·(h−1)), added as one arc pair.
    *
    * @param pinned vertices kept on the source side of every cut (repeats allowed)
    */
  final class Network(nVerts: Int, groups: Array[Group], h: Int, pinned: Array[Int] = Array.emptyIntArray) {
    require(h >= 1, s"pattern size h must be >= 1, got $h")
    private val deg      = new Array[Long](nVerts)
    private val isPinned = new Array[Boolean](nVerts)
    private var members  = 0L
    groups.foreach { g =>
      var i = 0
      while (i < g.verts.length) {
        val v = g.verts(i)
        if (v < 0 || v >= nVerts) throw new IllegalArgumentException(s"group vertex $v is outside [0, $nVerts)")
        deg(v) += g.mult
        i += 1
      }
      members += g.verts.length
    }
    pinned.foreach { v =>
      require(v >= 0 && v < nVerts, s"pinned vertex $v is outside [0, $nVerts)")
      isPinned(v) = true
    }

    val s = 0
    val t = nVerts + groups.length + 1
    val dinic = new Dinic(t + 1, (2L * nVerts + members).min(Int.MaxValue / 2).toInt)
    private val sinkArc = new Array[Int](nVerts)
    private val pinArcs = {
      val b = Array.newBuilder[Int]
      (0 until nVerts).foreach { v =>
        if (isPinned(v)) b += dinic.addEdge(s, v + 1, 0.0)
        else if (deg(v) > 0) dinic.addEdge(s, v + 1, deg(v).toDouble)
        sinkArc(v) = dinic.addEdge(v + 1, t, 0.0)
      }
      b.result()
    }
    groups.indices.foreach { gi =>
      val g = groups(gi)
      var i = 0
      while (i < g.verts.length) {
        dinic.addEdge(g.verts(i) + 1, nVerts + 1 + gi, g.mult.toDouble, g.mult.toDouble * (h - 1))
        i += 1
      }
    }

    /** The network at guess α, with no flow: ready for `maxFlow(s, t)`. */
    def at(alpha: Double): Dinic = {
      require(alpha >= 0 && alpha < Double.PositiveInfinity, s"alpha must be finite and >= 0, got $alpha")
      sinkArc.foreach(dinic.setCapacity(_, alpha * h))
      // above the cut {v→t : every v}, so no minimum cut crosses a pinned arc
      pinArcs.foreach(dinic.setCapacity(_, alpha * h * nVerts + 1))
      dinic.reset()
      dinic
    }

    /** Min-cut probe at α: vertices on the source side, excluding s. Without
      * pins, empty ⇔ no subgraph has Ψ-density strictly greater than α.
      */
    def denserThan(alpha: Double): Array[Int] = {
      at(alpha).maxFlow(s, t)
      val inS = dinic.minCutSourceSide(s)
      java.util.stream.IntStream.range(0, nVerts).filter(v => inS(v + 1)).toArray
    }
  }

  /** Build the network for guess α and return (dinic, s, t). */
  def build(nVerts: Int, groups: Array[Group], h: Int, alpha: Double): (Dinic, Int, Int) = {
    val net = new Network(nVerts, groups, h)
    (net.at(alpha), net.s, net.t)
  }
}

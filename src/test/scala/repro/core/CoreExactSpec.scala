package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.SynthGraphs
import repro.graph.LocalGraph
import repro.patterns.Pattern
import scala.util.Random

class CoreExactSpec extends AnyFunSuite {

  val patterns: Seq[(Pattern, String)] = Seq(
    (Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"), (Pattern.Clique(4), "4-clique"),
    (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"), (Pattern.TwoTriangle, "2-triangle"))

  for (seed <- 1 to 6; (p, nm) <- patterns) {
    test(s"CoreExact matches brute force (seed=$seed, Ψ=$nm)") {
      val g  = TestUtil.randomGraph(10, 0.45, seed)
      val bf = TestUtil.bruteForce(g, p)
      val r  = CoreExact.run(g, p)
      assert(math.abs(r.density - bf.density) < 1e-9,
        s"coreexact=${r.density} brute=${bf.density}")
    }
  }

  for (seed <- 10 to 15; (p, nm) <- Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                                         (Pattern.Diamond, "diamond"))) {
    test(s"CoreExact equals Exact on larger randoms (seed=$seed, Ψ=$nm)") {
      val g = TestUtil.randomGraph(40, 0.2, seed)
      val a = Exact.run(g, p)
      val b = CoreExact.run(g, p)
      assert(math.abs(a.density - b.density) < 1e-9, s"${a.density} vs ${b.density}")
    }
  }

  test("CoreExact on figure5 finds S1 (density 15/7), not the k_max-core") {
    val g = TestUtil.figure5
    val r = CoreExact.run(g, Pattern.Edge)
    assert(math.abs(r.density - 15.0 / 7) < 1e-9)
    assert(r.externalIds(g).toSet == (0L to 6L).toSet)
  }

  test("CoreExact on a planted clique finds the clique (triangle density)") {
    val base = SynthGraphs.powerLaw(200, 400, 2.5, 3)
    val g    = SynthGraphs.plantClique(base, 12, 3)
    val r    = CoreExact.run(g, Pattern.Triangle)
    // a 12-clique has triangle density C(12,3)/12 = 220/12
    assert(r.density >= 220.0 / 12 - 1e-9)
  }

  test("CoreExact handles instance-free graphs") {
    assert(CoreExact.run(TestUtil.path(6), Pattern.Triangle).density == 0.0)
  }

  test("CoreExact handles the empty graph") {
    assert(CoreExact.run(repro.graph.LocalGraph.fromEdges(Nil), Pattern.Edge).density == 0.0)
  }

  test("stats: core decomposition time is measured and total >= core time") {
    val g = TestUtil.randomGraph(50, 0.2, 4)
    val (_, st) = CoreExact.runWithStats(g, Pattern.Triangle)
    assert(st.coreDecompNanos > 0)
    assert(st.totalNanos >= st.coreDecompNanos)
  }

  test("stats: flow networks shrink as the binary search narrows (planted clique)") {
    // a hub-haloed K8 with a K9 hanging off it, joined to a power-law graph:
    // the hubs keep the load bound open, so the flow search runs
    val base = SynthGraphs.powerLaw(300, 700, 2.5, 5)
    val g    = LocalGraph.fromEdges(base.edgesExternal ++ (component(1, 8, Seq.fill(4)(6) ++ Seq.fill(4)(4),
                 Seq(9), 0, new Random(5), hubs = true) :+ ((0L, 1000L))), base.ids)
    val (_, st) = CoreExact.runWithStats(g, Pattern.Triangle)
    assert(st.probes >= 2)
    if (st.networkNodeCounts.size >= 2)
      assert(st.networkNodeCounts.last <= st.networkNodeCounts.head)
    // the first network must already be far smaller than n + #triangles
    assert(st.networkNodeCounts.head < g.n)
  }

  test("CoreExact probes fewer flow networks than Exact's naive bound") {
    val g = TestUtil.randomGraph(60, 0.15, 6)
    val (_, st) = CoreExact.runWithStats(g, Pattern.Triangle)
    // Exact does ~log2(maxdeg * n^2) probes on the FULL graph; CoreExact's
    // probes run on cores. Sanity: probe count is bounded and positive.
    assert(st.probes >= 0 && st.probes < 200)
  }

  test("deterministic: repeated runs give the same density") {
    val g = TestUtil.randomGraph(30, 0.3, 7)
    val a = CoreExact.run(g, Pattern.Triangle).density
    val b = CoreExact.run(g, Pattern.Triangle).density
    assert(a == b)
  }

  test("componentsWithin splits disconnected cores") {
    val g = repro.graph.LocalGraph.fromEdges(
      (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i.toLong, j.toLong)) ++
      (for (i <- 10 until 14; j <- (i + 1) until 14) yield (i.toLong, j.toLong)))
    val comps = g.components((0 until g.n).toArray)
    assert(comps.size == 2)
    assert(comps.map(_.length).sorted == Seq(4, 4))
  }

  test("disconnected graph: CoreExact finds the denser component") {
    // K5 (density 2) in one component, K3 (density 1) in another
    val g = repro.graph.LocalGraph.fromEdges(
      (for (i <- 0 until 5; j <- (i + 1) until 5) yield (i.toLong, j.toLong)) ++
      Seq((10L, 11L), (11L, 12L), (10L, 12L)))
    val r = CoreExact.run(g, Pattern.Edge)
    assert(math.abs(r.density - 2.0) < 1e-9)
    assert(r.size == 5)
  }

  test("CDS in the SECOND component is still found (per-component u deviation)") {
    // sparse-ish component first, densest subgraph K6 among higher ids
    val g = repro.graph.LocalGraph.fromEdges(
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L)) ++
      (for (i <- 20 until 26; j <- (i + 1) until 26) yield (i.toLong, j.toLong)))
    val r = CoreExact.run(g, Pattern.Triangle)
    assert(math.abs(r.density - 20.0 / 6) < 1e-9) // C(6,3)/6
  }

  test("stats: arc counts follow the network's arc formula (K6 minus an edge, edge)") {
    // s→v for the 6 vertices, v→t for the 6, and 2·h arcs for each of the 14
    // edge groups; nodes: 6 vertices, 14 groups, s and t. The load bound
    // leaves it open: max degree 5, and 5·6 > 2·14.
    val g = LocalGraph.fromEdges(for (u <- 0 until 6; v <- u + 1 until 6 if u > 0 || v > 1) yield (u.toLong, v.toLong))
    val (_, st) = CoreExact.runWithStats(g, Pattern.Edge)
    assert(st.probes == 1)
    assert(st.networkNodeCounts == Vector(6 + 14 + 2))
    assert(st.networkArcCounts == Vector(6L + 6 + 2 * 2 * 14))
    assert(st.augmentingPhases > 0)
  }

  test("load bound: K6 (edge) needs no probe, max degree 5 against ρ = 15/6 with h = 2") {
    val (r, st) = CoreExact.runWithStats(TestUtil.complete(6), Pattern.Edge)
    assert(r.size == 6 && r.instances == 15L)
    assert(st.probes == 0 && st.networkNodeCounts.isEmpty)
    assert(st.certifiedByBound == 1 && st.certifiedByCut == 0 && st.components == 1)
  }

  test("load bound: a component one unit above it is searched, and its flow finds a denser subgraph") {
    // S' (ids 0..6): 7 vertices, 10 edges, degrees 3 but for vertex 6 (2),
    // which a cycle on 10..15 joins; S_A (ids 100..104): K4 minus an edge
    // plus a vertex on the two ends of the missing edge, 7 edges on 5; and a
    // 20-cycle. The peel removes S' before S_A and the 20-cycle, so no
    // residual beats 7/5, and Pruning 2 finds S_A (the S' component is
    // diluted by its cycle). S''s component then has max degree 3:
    // 3·5 = 2·7 + 1, one unit above the bound, and the flow finds ρ(S') = 10/7.
    def cycle(ids: Seq[Long]) = ids.indices.map(i => (ids(i), ids((i + 1) % ids.length)))
    val g = LocalGraph.fromEdges(
      Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 0L), (1L, 4L), (2L, 5L), (6L, 0L), (6L, 3L), (6L, 10L)) ++
      cycle(10L to 15L) ++
      Seq((100L, 101L), (100L, 102L), (100L, 103L), (101L, 102L), (101L, 103L), (104L, 102L), (104L, 103L)) ++
      cycle(200L until 220L))
    val (r, st) = CoreExact.runWithStats(g, Pattern.Edge)
    assert(r.instances == 10L && r.externalIds(g).sorted.sameElements(0L to 6L))
    assert(Exact.run(g, Pattern.Edge).density == r.density)
    assert(st.certifiedByCut == 2 && st.certifiedByBound == 1 && st.components == 3)
  }

  for ((p, nm) <- patterns) {
    test(s"CoreExact equals Exact and brute force, one certificate per component (Ψ=$nm)") {
      for (seed <- 20 to 39) {
        // two random parts, so the core often splits into components
        val a  = TestUtil.randomGraph(7, 0.55, seed)
        val b  = TestUtil.randomGraph(7, 0.55, seed + 100)
        val g  = LocalGraph.fromEdges(a.edgesExternal ++ b.edgesExternal.map { case (u, v) => (u + 7, v + 7) },
                                      0L until 14L)
        val bf = TestUtil.bruteForce(g, p)
        val ex = Exact.run(g, p)
        val (r, st) = CoreExact.runWithStats(g, p)
        assert(math.abs(r.density - bf.density) < 1e-9 && math.abs(ex.density - bf.density) < 1e-9,
          s"seed=$seed coreexact=${r.density} exact=${ex.density} brute=${bf.density}")
        assert(st.certifiedByBound + st.certifiedByCut == st.components, s"seed=$seed $st")
      }
    }
  }

  test("stats: one node count, one arc count per probe") {
    val (_, st) = CoreExact.runWithStats(TestUtil.figure5, Pattern.Edge)
    assert(st.networkNodeCounts.size == st.probes && st.networkArcCounts.size == st.probes)
  }

  /** Component i of a planted union: a clique K_a; satellites, the t-th
    * joined to sats(t) random clique vertices (with `hubs`, to clique
    * vertices 0 until sats(t), so a few hubs carry them all); junk cliques,
    * each joined to the clique by one edge; and `noise` random edges over the
    * component. Its vertices get the ids 1000·i + 0 until its size, in random
    * order. */
  private def component(i: Int, a: Int, sats: Seq[Int], junk: Seq[Int], noise: Int,
                        rnd: Random, hubs: Boolean = false): Seq[(Long, Long)] = {
    val e = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    for (u <- 0 until a; v <- u + 1 until a) e += ((u, v))
    sats.zipWithIndex.foreach { case (s, t) =>
      (if (hubs) (0 until s).toList else rnd.shuffle((0 until a).toList).take(s)).foreach(c => e += ((c, a + t)))
    }
    var j0 = a + sats.length
    junk.zipWithIndex.foreach { case (j, x) =>
      for (u <- 0 until j; v <- u + 1 until j) e += ((j0 + u, j0 + v))
      e += ((x % a, j0))
      j0 += j
    }
    for (_ <- 0 until noise) {
      val u = rnd.nextInt(j0); val v = rnd.nextInt(j0)
      if (u != v) e += ((u, v))
    }
    val perm = rnd.shuffle((0 until j0).toVector) // so no part is a prefix of the ids
    e.map { case (u, v) => (perm(u.toInt) + 1000L * i, perm(v.toInt) + 1000L * i) }.toSeq
  }

  /** Three components, searched in this order: a 16-clique whose satellites
    * lift its densest subgraph above k'' (the peel removes them before the
    * denser-degree junk, so ρ'' stays low); a 15-clique with junk cliques
    * K_4..K_15 hanging off it, whose core numbers span the range between k''
    * and that lifted bound; and the CDS, a 16-clique with `lastSats` and
    * `lastJunk`, its satellites on hubs if `lastHubs`. */
  private def plantedUnion(seed: Int, lastSats: Seq[Int], lastJunk: Seq[Int],
                           lastHubs: Boolean = false): LocalGraph = {
    val rnd = new Random(seed)
    LocalGraph.fromEdges(
      component(0, 16, Seq.fill(14)(11), Seq(15, 15), 5, rnd) ++
      component(1, 15, Nil, 4 to 15, 0, rnd) ++
      component(2, 16, lastSats, lastJunk, 5, rnd, lastHubs))
  }

  private val unionPatterns = Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                                  (Pattern.Clique(4), "4-clique"), (Pattern.Diamond, "diamond"))

  // (a) the first component lifts l above k'', so the later two are cut to
  // their (⌈l⌉, Ψ)-cores before their networks are built, the CDS component
  // losing its low junk cliques; (b) haloed CDS: 14 satellites of 14 plus 10
  // of 10, so a probe finds the halo first and a later one shrinks the
  // network to a higher core (Optimization 4). The satellites spread the load
  // of (b)'s clique evenly, so once a probe or two has lifted ρ the load bound
  // closes what is left without a network: (b) checks answers, and the
  // hub-haloed inputs below check that the search runs.
  for ((kind, sats, junk, seeds, searches) <- Seq(
         ("later components pre-filtered", Seq.fill(14)(12), Seq(15, 15) ++ (4 to 14), Seq(1, 2, 4, 7), true),
         ("haloed CDS, network shrinks", Seq.fill(14)(14) ++ Seq.fill(10)(10), Seq(17, 17), Seq(1, 2, 4, 6), false));
       seed <- seeds; (p, nm) <- unionPatterns) {
    test(s"CoreExact equals Exact on planted cliques, CDS in the last component: $kind (Ψ=$nm, seed=$seed)") {
      val g        = plantedUnion(seed, sats, junk)
      val (ce, st) = CoreExact.runWithStats(g, p)
      val ex       = Exact.run(g, p)
      assert(math.abs(ce.density - ex.density) < 1e-9, s"coreexact=${ce.density} exact=${ex.density}")
      assert(ce.vertices.sorted.sameElements(ex.vertices.sorted))
      assert(ce.externalIds(g).forall(_ >= 2000L), "the CDS lies in the component searched last")
      if (searches) assert(st.probes > 3, "ρ'' < ρ_opt: the binary search runs")
    }
  }

  // Hub-haloed CDS: the satellites of the CDS component all join the same
  // clique vertices, so these hubs' load stays far above every density and
  // the load bound cannot close the component. With (a)'s satellites and junk
  // the component is pre-filtered; with six satellites on each of 15, 14, …,
  // 6 hubs and two K17 a probe finds the halo first and the next ones shrink
  // the network (Optimization 4).
  for ((kind, sats, junk, pats) <- Seq(
         ("later components pre-filtered", Seq.fill(14)(12), Seq(15, 15) ++ (4 to 14), unionPatterns.take(3)),
         ("network shrinks", (15 to 6 by -1).flatMap(Seq.fill(6)(_)), Seq(17, 17), unionPatterns.take(2)));
       seed <- Seq(1, 2, 4, 6); (p, nm) <- pats) {
    test(s"CoreExact equals Exact on planted cliques, hub-haloed CDS in the last component: $kind (Ψ=$nm, seed=$seed)") {
      val g        = plantedUnion(seed, sats, junk, lastHubs = true)
      val (ce, st) = CoreExact.runWithStats(g, p)
      val ex       = Exact.run(g, p)
      assert(math.abs(ce.density - ex.density) < 1e-9, s"coreexact=${ce.density} exact=${ex.density}")
      assert(ce.vertices.sorted.sameElements(ex.vertices.sorted))
      assert(ce.externalIds(g).forall(_ >= 2000L), "the CDS lies in the component searched last")
      assert(st.probes > 3, "ρ'' < ρ_opt: the search runs")
    }
  }

  // The peel on the hub-haloed planted unions: each removal of a clique
  // vertex hits the other clique vertices once per instance they share.
  for ((kind, sats, junk) <- Seq(
         ("later components pre-filtered", Seq.fill(14)(12), Seq(15, 15) ++ (4 to 14)),
         ("network shrinks", (15 to 6 by -1).flatMap(Seq.fill(6)(_)), Seq(17, 17)));
       (p, nm) <- unionPatterns.slice(1, 3)) {
    test(s"batched peel equals the reference peel on a hub-haloed planted union: $kind (Ψ=$nm, seed=1)") {
      val g    = plantedUnion(1, sats, junk, lastHubs = true)
      val inst = p.instances(g)
      val ref  = TestUtil.referencePeel(g.n, inst)
      assert(TestUtil.maxHits(ref.order, inst) > 1)
      assert(TestUtil.peelFields(CliqueCore.decompose(g, p)) == TestUtil.peelFields(ref))
    }
  }

  // Same-search guard: probes and every network's node and arc count of
  // CoreExact on three hub-haloed cliques, as the search produced them before
  // the load bound. The hubs keep the bound from firing on this input, so a
  // change to the flow or search layers that keeps the search must keep these.
  for ((p, nm, probes, nodes, arcs) <- Seq(
         (Pattern.Edge, "edge", 6, Vector(630, 727, 727, 990, 906, 906),
          Vector(2384L, 2760L, 2760L, 3778L, 3456L, 3456L)),
         (Pattern.Triangle, "triangle", 6, Vector(2694, 3348, 3348, 4876, 4474, 4474),
          Vector(15912L, 19812L, 19812L, 28924L, 26536L, 26536L)),
         (Pattern.Clique(4), "4-clique", 4, Vector(8405, 11064, 17518, 17518),
          Vector(66882L, 88124L, 139684L, 139684L)))) {
    test(s"same search as before on three hub-haloed cliques (seed 16): probes and network sizes (Ψ=$nm)") {
      val four    = (15 to 8 by -1).flatMap(Seq.fill(4)(_))
      val six     = (15 to 6 by -1).flatMap(Seq.fill(6)(_))
      val rnd     = new Random(16)
      val g       = LocalGraph.fromEdges(
        component(0, 14, four, Seq(15, 15), 5, rnd, hubs = true) ++
        component(1, 16, four, Seq(17, 17), 5, rnd, hubs = true) ++
        component(2, 18, six, Seq(19, 19), 5, rnd, hubs = true))
      val (_, st) = CoreExact.runWithStats(g, p)
      assert(st.certifiedByBound == 0)
      assert(st.probes == probes)
      assert(st.networkNodeCounts == nodes)
      assert(st.networkArcCounts == arcs)
    }
  }

  // Certificates pinned to the values before the load bound was computed on
  // the flat store: (certifiedByBound, certifiedByCut, components, probes)
  // per planted union, kind, seed and Ψ. In kind (a) the second component is
  // pre-filtered to a higher core and closed by the bound (its unfiltered
  // load already meets it); the first and last get networks.
  private val a4 = (1, 2, 3, 4)
  for ((kind, sats, junk, hubs, pins) <- Seq(
         ("(a) later components pre-filtered", Seq.fill(14)(12), Seq(15, 15) ++ (4 to 14), false,
          Map(1 -> Seq(a4, a4, a4, a4), 2 -> Seq(a4, a4, a4, a4), 4 -> Seq(a4, a4, a4, a4),
              7 -> Seq(a4, a4, a4, a4))),
         ("(b) haloed CDS", Seq.fill(14)(14) ++ Seq.fill(10)(10), Seq(17, 17), false,
          Map(1 -> Seq((1, 2, 3, 5), a4, (2, 1, 3, 2), (2, 1, 3, 2)),
              2 -> Seq(a4, (1, 2, 3, 3), (2, 1, 3, 2), (1, 2, 3, 3)),
              4 -> Seq(a4, a4, (2, 1, 3, 2), (1, 2, 3, 3)),
              6 -> Seq(a4, a4, (2, 1, 3, 2), (1, 2, 3, 3)))),
         ("(a) hub-haloed", Seq.fill(14)(12), Seq(15, 15) ++ (4 to 14), true,
          Map(1 -> Seq(a4, a4, a4, (1, 2, 3, 2)), 2 -> Seq(a4, a4, a4, (1, 2, 3, 2)),
              4 -> Seq(a4, a4, a4, (1, 2, 3, 2)), 6 -> Seq(a4, a4, a4, (1, 2, 3, 2)))),
         ("(b) hub-haloed", (15 to 6 by -1).flatMap(Seq.fill(6)(_)), Seq(17, 17), true,
          Map(1 -> Seq((1, 2, 3, 5), a4, (2, 1, 3, 3), (0, 1, 1, 1)),
              2 -> Seq((1, 2, 3, 5), a4, (2, 1, 3, 3), (0, 1, 1, 1)),
              4 -> Seq(a4, a4, (2, 1, 3, 3), (0, 1, 1, 1)),
              6 -> Seq((1, 2, 3, 5), a4, (2, 1, 3, 3), (0, 1, 1, 1)))));
       (seed, byPattern) <- pins) {
    test(s"same certificates as before on planted unions: $kind (seed=$seed)") {
      val g = plantedUnion(seed, sats, junk, hubs)
      unionPatterns.zip(byPattern).foreach { case ((p, nm), pin) =>
        val (_, st) = CoreExact.runWithStats(g, p)
        assert((st.certifiedByBound, st.certifiedByCut, st.components, st.probes) == pin, s"Ψ=$nm")
      }
    }
  }

  test("same search as before where a pre-filtered component misses its unfiltered load bound but meets its own") {
    // three G(12, 0.4) side by side, Ψ = 2-triangle: the last component is
    // cut to a higher core, its load over the whole component misses the
    // bound and its load over that core meets it
    val parts = Seq(93, 1093, 2093).map(TestUtil.randomGraph(12, 0.4, _))
    val g     = LocalGraph.fromEdges(parts.zipWithIndex.flatMap { case (q, i) =>
      q.edgesExternal.map { case (u, v) => (u + 100L * i, v + 100L * i) } })
    val (r, st) = CoreExact.runWithStats(g, Pattern.TwoTriangle)
    assert((st.certifiedByBound, st.certifiedByCut, st.components, st.probes) == ((1, 2, 3, 3)))
    assert(st.networkNodeCounts == Vector(40, 33, 24) && st.networkArcCounts == Vector(232L, 194L, 128L))
    assert(st.augmentingPhases == 8)
    assert(r.instances == 32L && r.externalIds(g).sorted.sameElements(Seq(0L, 1, 3, 4, 5, 7, 8, 10, 11)))
  }

  // Same-search guard for grouped patterns: two small hub-haloed cliques
  // (K8 and K10, satellites on 7, 6, …, 3 hubs three times over, one junk
  // clique each), seed 3. Both components get a network, and the diamond
  // search shrinks its second network (Optimization 4). Every `Stats` field
  // but the timings is pinned to the values read before the search moved
  // onto the flat instance store.
  for ((p, nm, probes, nodes, arcs, phases, mu) <- Seq(
         (Pattern.Diamond, "diamond", 4, Vector(1116, 2063, 1760, 1760),
          Vector(8756L, 16290L, 13884L, 13884L), 14L, 2227L),
         (Pattern.TwoTriangle, "2-triangle", 3, Vector(782, 1759, 1759),
          Vector(6102L, 13876L, 13876L), 11L, 3472L))) {
    test(s"same search as before on two small hub-haloed cliques (seed 3): every Stats field (Ψ=$nm)") {
      val rnd  = new Random(3)
      val sats = (7 to 3 by -1).flatMap(Seq.fill(3)(_))
      val g    = LocalGraph.fromEdges(
        component(0, 8, sats, Seq(9), 3, rnd, hubs = true) ++
        component(1, 10, sats, Seq(11), 3, rnd, hubs = true))
      val (r, st) = CoreExact.runWithStats(g, p)
      assert((st.certifiedByBound, st.certifiedByCut, st.components, st.probes) == ((0, 2, 2, probes)))
      assert(st.networkNodeCounts == nodes && st.networkArcCounts == arcs)
      assert(st.augmentingPhases == phases)
      assert(r.instances == mu && r.size == 19)
    }
  }
}

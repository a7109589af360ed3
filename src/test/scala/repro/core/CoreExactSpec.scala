package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.SynthGraphs
import repro.patterns.Pattern

class CoreExactSpec extends AnyFunSuite {

  val patterns: Seq[(Pattern, String)] = Seq(
    (Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"), (Pattern.Clique(4), "4-clique"),
    (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"), (Pattern.TwoTriangle, "2-triangle"))

  for (seed <- 1 to 6; (p, nm) <- patterns) {
    test(s"CoreExact matches brute force (seed=$seed, Ψ=$nm)") {
      val g  = TestUtil.randomGraph(10, 0.45, seed)
      val bf = Densest.bruteForce(g, p)
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
    val g = SynthGraphs.figure5
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
    val base = SynthGraphs.powerLaw(300, 700, 2.5, 5)
    val g    = SynthGraphs.plantClique(base, 10, 5)
    val (_, st) = CoreExact.runWithStats(g, Pattern.Triangle)
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
    val comps = CoreExact.componentsWithin(g, (0 until g.n).toArray)
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

  test("stats: arc counts follow the network's arc formula (K6, edge)") {
    // s→v for the 6 vertices, v→t for the 6, and 2·h arcs for each of the 15
    // edge groups; nodes: 6 vertices, 15 groups, s and t
    val (_, st) = CoreExact.runWithStats(TestUtil.complete(6), Pattern.Edge)
    assert(st.probes == 1)
    assert(st.networkNodeCounts == Vector(6 + 15 + 2))
    assert(st.networkArcCounts == Vector(6L + 6 + 2 * 2 * 15))
    assert(st.augmentingPhases > 0)
  }

  test("stats: one node count, one arc count per probe") {
    val (_, st) = CoreExact.runWithStats(SynthGraphs.figure5, Pattern.Edge)
    assert(st.networkNodeCounts.size == st.probes && st.networkArcCounts.size == st.probes)
  }
}

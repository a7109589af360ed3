package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.flow.DensestFlow
import repro.graph.LocalGraph
import repro.patterns.Pattern

class ExactSpec extends AnyFunSuite {

  test("EDS of K4 plus pendant is the K4 (density 1.5)") {
    val g = LocalGraph.fromEdges(
      Seq((0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L), (3L, 4L)))
    val r = Exact.run(g, Pattern.Edge)
    assert(math.abs(r.density - 1.5) < 1e-9)
    assert(r.vertices.sorted.sameElements(Array(0, 1, 2, 3)))
  }

  test("EDS of figure5 is S1 with density 15/7 (paper Example 5)") {
    val g = TestUtil.figure5
    val r = Exact.run(g, Pattern.Edge)
    assert(math.abs(r.density - 15.0 / 7) < 1e-9)
    assert(r.externalIds(g).toSet == (0L to 6L).toSet)
  }

  test("triangle-CDS of K5 is K5 itself") {
    val r = Exact.run(TestUtil.complete(5), Pattern.Triangle)
    assert(math.abs(r.density - 10.0 / 5) < 1e-9)
    assert(r.size == 5)
  }

  test("graph with no instances returns density 0") {
    val r = Exact.run(TestUtil.path(4), Pattern.Triangle)
    assert(r.density == 0.0)
  }

  test("single edge graph: EDS density 1/2") {
    val r = Exact.run(LocalGraph.fromEdges(Seq((0L, 1L))), Pattern.Edge)
    assert(math.abs(r.density - 0.5) < 1e-9)
  }

  test("empty graph") {
    assert(Exact.run(LocalGraph.fromEdges(Nil), Pattern.Edge).density == 0.0)
  }

  val patterns: Seq[(Pattern, String)] = Seq(
    (Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"), (Pattern.Clique(4), "4-clique"),
    (Pattern.Star(2), "2-star"), (Pattern.Diamond, "diamond"), (Pattern.TwoTriangle, "2-triangle"))

  for (seed <- 1 to 6; (p, nm) <- patterns) {
    test(s"Exact matches brute force on random graph (seed=$seed, Ψ=$nm)") {
      val g  = TestUtil.randomGraph(10, 0.45, seed)
      val bf = TestUtil.bruteForce(g, p)
      val r  = Exact.run(g, p)
      assert(math.abs(r.density - bf.density) < 1e-9,
        s"exact=${r.density} brute=${bf.density}")
      // the returned subgraph's density must be self-consistent
      val mu = Densest.countWithin(p.instances(g), g.n, r.vertices)
      assert(math.abs(mu.toDouble / r.size - r.density) < 1e-9)
    }
  }

  test("Lemma 3: connected components of the CDS share its density") {
    // two disjoint K4's: both are equally dense; CDS density 1.5
    val g = LocalGraph.fromEdges(
      (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i.toLong, j.toLong)) ++
      (for (i <- 10 until 14; j <- (i + 1) until 14) yield (i.toLong, j.toLong)))
    val r = Exact.run(g, Pattern.Edge)
    assert(math.abs(r.density - 1.5) < 1e-9)
  }

  test("a 20,000-vertex path runs without overflowing the stack") {
    val n = 20000
    val r = Exact.run(TestUtil.path(n), Pattern.Edge)
    assert(r.size == n && r.density == (n - 1).toDouble / n)
  }

  test("a density gap of 1/(n(n-1)) at n ≈ 10^4: Exact and CoreExact find the unique optimum, the cut decides at it") {
    // A = C_5000(1..5) is 10-regular, ρ = 5; B = C_4999(1..5) plus the chord
    // (0, 2499) has ρ = 5 + 1/4999. As 2μ(S) ≤ 10|S| + 2 − e(S, S̄), B is the
    // unique optimum.
    def circulant(base: Long, size: Int) =
      for (i <- 0 until size; d <- 1 to 5) yield (base + i, base + (i + d) % size)
    val g    = LocalGraph.fromEdges(circulant(0, 5000) ++ circulant(5000, 4999) :+ ((5000L, 7499L)))
    val n    = g.n
    val b    = (5000 until n).toArray // local ids equal the external ones
    val rhoB = 24996.0 / 4999
    assert(n == 9999 && g.m == 49996)
    for (r <- Seq(Exact.run(g, Pattern.Edge), CoreExact.run(g, Pattern.Edge))) {
      assert(r.vertices.sorted.sameElements(b), s"${r.size} vertices from ${r.vertices.min}, μ = ${r.instances}")
      assert(r.instances == 24996L && r.density == rhoB)
    }
    val groups = DensestFlow.ungrouped(Pattern.Edge.instances(g))
    val at     = new DensestFlow.Network(n, groups, 2).denserThan(rhoB)
    assert(at.isEmpty, s"${at.length} vertices at ρ(B)")
    val below  = new DensestFlow.Network(n, groups, 2).denserThan(rhoB - 1.0 / (n.toLong * (n - 1)))
    assert(below.sameElements(b), s"${below.length} vertices just below ρ(B)")
  }
}

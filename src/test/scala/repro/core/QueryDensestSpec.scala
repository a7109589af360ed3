package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** Section 6.3: the densest subgraph containing a set Q of query vertices. */
class QueryDensestSpec extends AnyFunSuite {

  test("query inside the densest subgraph returns the unconstrained optimum") {
    // K4 + pendant: Q = {0} (a clique member) -> the K4 itself
    val g = LocalGraph.fromEdges(
      Seq((0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L), (3L, 4L)))
    val r = QueryDensest.run(g, Pattern.Edge, Set(0))
    assert(math.abs(r.density - 1.5) < 1e-9)
    assert(r.vertices.contains(0))
  }

  test("query outside the densest subgraph drags it in") {
    // K4 (0..3) + pendant 4 hanging off 3; Q = {4}: best is K4 + vertex 4
    val g = LocalGraph.fromEdges(
      Seq((0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L), (3L, 4L)))
    val r  = QueryDensest.run(g, Pattern.Edge, Set(4))
    val bf = TestUtil.bruteForce(g, Pattern.Edge, Set(4))
    assert(math.abs(r.density - bf.density) < 1e-9)
    assert(r.vertices.contains(4))
    assert(r.density < 1.5) // constrained optimum is worse than the EDS
  }

  for (seed <- 1 to 6; (p, nm) <- Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"))) {
    test(s"matches brute force over Q-containing subsets (seed=$seed, Ψ=$nm)") {
      val g   = TestUtil.randomGraph(10, 0.4, seed)
      val q   = Set(seed % g.n, (3 * seed + 1) % g.n)
      val r   = QueryDensest.run(g, p, q)
      val bf  = TestUtil.bruteForce(g, p, q)
      assert(math.abs(r.density - bf.density) < 1e-9,
        s"got ${r.density}, brute ${bf.density}")
      assert(q.subsetOf(r.vertices.toSet))
    }
  }

  test("lower bound: result density >= x/|V_Psi| (Section 6.3 bound)") {
    for (seed <- 10 to 13) {
      val g   = TestUtil.randomGraph(14, 0.35, seed)
      val psi = Pattern.Edge
      val dec = CliqueCore.decompose(g, psi)
      val q   = Set(seed % g.n)
      val x   = dec.core(q.head)
      val r   = QueryDensest.run(g, psi, q)
      assert(r.density + 1e-9 >= x.toDouble / psi.numVertices)
    }
  }

  test("query set spanning two components still returns a valid subgraph") {
    val g = LocalGraph.fromEdges(
      (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i.toLong, j.toLong)) ++
      Seq((10L, 11L), (11L, 12L), (10L, 12L)))
    val local12 = g.ids.indexOf(12L)
    val r  = QueryDensest.run(g, Pattern.Edge, Set(0, local12))
    val bf = TestUtil.bruteForce(g, Pattern.Edge, Set(0, local12))
    assert(math.abs(r.density - bf.density) < 1e-9)
  }

  test("graphs with no instances return the query set itself") {
    val g = TestUtil.path(5)
    val r = QueryDensest.run(g, Pattern.Triangle, Set(2))
    assert(r.density == 0.0)
    assert(r.vertices.contains(2))
  }

  for ((p, nm) <- Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"))) {
    test(s"a query vertex of the densest subgraph gets the unconstrained optimum (SSCA, Ψ=$nm)") {
      // with 1e15 on the query's s→q arc, round-off lost the optimum here
      val g  = repro.data.SynthGraphs.standIn("SSCA", 0.01, 17).g
      val ce = CoreExact.run(g, p)
      val r  = QueryDensest.run(g, p, Set(ce.vertices(0)))
      assert(math.abs(r.density - ce.density) < 1e-9, s"${r.density} vs ${ce.density}")
    }
  }

  test("a first probe that fails offers its source side, the answer (K5 plus a 12-cycle, Q in the K5)") {
    // x = 4, so the candidates are the 2-core ∪ Q, all 17 vertices, of density
    // 22/17; the probe at x/2 = 2 fails and only its source side K5 is optimal
    val g  = LocalGraph.fromEdges(
      (for (i <- 0 until 5; j <- (i + 1) until 5) yield (i.toLong, j.toLong)) ++
      (0 until 12).map(i => (10L + i, 10L + (i + 1) % 12)))
    val r  = QueryDensest.run(g, Pattern.Edge, Set(0))
    val bf = TestUtil.bruteForce(g, Pattern.Edge, Set(0))
    assert(g.n == 17)
    assert(r.vertices.sorted.sameElements(bf.vertices) && r.instances == bf.instances && r.density == bf.density)
    assert(r.vertices.sorted.sameElements(0 until 5) && r.density == 2.0)
  }

  test("an empty query, and query vertices outside [0, n), are rejected by name") {
    val g  = TestUtil.complete(4)
    val e0 = intercept[IllegalArgumentException](QueryDensest.run(g, Pattern.Edge, Set.empty))
    assert(e0.getMessage.contains("empty"), e0.getMessage)
    for (v <- Seq(4, 7, -3)) {
      val e = intercept[IllegalArgumentException](QueryDensest.run(g, Pattern.Edge, Set(1, v)))
      assert(e.getMessage.contains(s"vertex $v ") && e.getMessage.contains("[0, 4)"), e.getMessage)
    }
  }

  for (seed <- 1 to 4; (p, nm) <- Seq((Pattern.Edge, "edge"), (Pattern.Triangle, "triangle"),
                                       (Pattern.Clique(4), "4-clique"), (Pattern.Diamond, "diamond"),
                                       (Pattern.Star(2), "2-star"))) {
    test(s"μ and density equal the array path; density equals brute force (seed=$seed, Ψ=$nm)") {
      val g    = TestUtil.randomGraph(12, 0.5, seed)
      val q    = Set(seed % g.n, (5 * seed + 2) % g.n)
      val r    = QueryDensest.run(g, p, q)
      val ref  = Densest.subgraphOf(p.instances(g), g.n, r.vertices)
      assert(r.instances == ref.instances && r.density == ref.density)
      assert(math.abs(r.density - TestUtil.bruteForce(g, p, q).density) < 1e-9)
      assert(q.subsetOf(r.vertices.toSet))
    }
  }
}

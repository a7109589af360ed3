package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.LocalGraph
import repro.patterns.Pattern

/** Section-7 behavior: pattern-densest subgraphs (PDS). */
class PdsSpec extends AnyFunSuite {

  test("2-star PDS of a star graph is the whole star") {
    val g = TestUtil.star(6) // density C(6,2)/7 maximal over substars
    val r = CoreExact.run(g, Pattern.Star(2))
    assert(r.size == 7)
    assert(math.abs(r.density - 15.0 / 7) < 1e-9)
  }

  test("different patterns select different densest subgraphs (case-study shape)") {
    // K5 (ids 0..4) + a hub (100) with 20 leaves: triangles live in the
    // clique, 2-stars in the hub — like Fig. 17's triangle vs 2-star PDS's.
    val clique = for (i <- 0 until 5; j <- (i + 1) until 5) yield (i.toLong, j.toLong)
    val hub    = (1 to 20).map(i => (100L, 100L + i))
    val bridge = Seq((0L, 100L))
    val g = LocalGraph.fromEdges(clique ++ hub ++ bridge)

    val tri = CoreExact.run(g, Pattern.Triangle)
    assert(tri.externalIds(g).toSet == Set(0L, 1L, 2L, 3L, 4L))

    val star = CoreExact.run(g, Pattern.Star(2))
    // hub star density C(21,2)-ish / 22 >> clique 2-star density 6
    assert(star.density > 8.0)
    assert(star.externalIds(g).contains(100L))
  }

  test("diamond PDS of two stacked squares picks the denser block") {
    // a 4-cycle with both diagonals absent has exactly one C4: density 1/4;
    // K4 has three: density 3/4 — PDS must be the K4
    val square = Seq((10L, 11L), (11L, 12L), (12L, 13L), (13L, 10L))
    val k4     = for (i <- 0 until 4; j <- (i + 1) until 4) yield (i.toLong, j.toLong)
    val g = LocalGraph.fromEdges(square ++ k4 :+ (0L, 10L))
    val r = CoreExact.run(g, Pattern.Diamond)
    assert(r.externalIds(g).toSet == Set(0L, 1L, 2L, 3L))
    assert(math.abs(r.density - 0.75) < 1e-9)
  }

  test("PDS with TwoTriangle pattern matches brute force on randoms") {
    for (seed <- 20 to 23) {
      val g  = TestUtil.randomGraph(9, 0.55, seed)
      val bf = TestUtil.bruteForce(g, Pattern.TwoTriangle)
      val r  = CoreExact.run(g, Pattern.TwoTriangle)
      assert(math.abs(r.density - bf.density) < 1e-9, s"seed=$seed")
    }
  }

  test("PDS with TailedTriangle matches brute force") {
    for (seed <- 30 to 32) {
      val g  = TestUtil.randomGraph(9, 0.5, seed)
      val bf = TestUtil.bruteForce(g, Pattern.TailedTriangle)
      val r  = CoreExact.run(g, Pattern.TailedTriangle)
      assert(math.abs(r.density - bf.density) < 1e-9, s"seed=$seed")
    }
  }

  test("c3-star PDS matches brute force") {
    for (seed <- 40 to 42) {
      val g  = TestUtil.randomGraph(9, 0.5, seed)
      val bf = TestUtil.bruteForce(g, Pattern.Star(3))
      val r  = CoreExact.run(g, Pattern.Star(3))
      assert(math.abs(r.density - bf.density) < 1e-9, s"seed=$seed")
    }
  }

  test("subpattern core containment: (k, 4-clique)-core ⊆ (k, c3-star)-core") {
    // Section 5.4: Ψ ⊆ Ψ' with |V_Ψ| = |V_Ψ'| ⇒ (k,Ψ')-core ⊆ (k,Ψ)-core,
    // when each Ψ'-instance through v yields a DISTINCT Ψ-instance through v.
    // Every 4-clique containing v contains the c3-star centered at v over its
    // other three vertices, and distinct 4-cliques give distinct stars.
    for (seed <- 1 to 4) {
      val g = TestUtil.randomGraph(12, 0.5, seed)
      val sDec = CliqueCore.decompose(g, Pattern.Star(3))
      val cDec = CliqueCore.decompose(g, Pattern.Clique(4))
      for (k <- 1L to math.min(cDec.kMax, 5L)) {
        assert(cDec.coreVertices(k).toSet.subsetOf(sDec.coreVertices(k).toSet),
          s"seed=$seed k=$k")
      }
    }
  }

  test("Lemma 11: PeelApp ratio holds for patterns") {
    for (seed <- 50 to 53; p <- Seq(Pattern.Diamond, Pattern.Star(3), Pattern.TwoTriangle)) {
      val g = TestUtil.randomGraph(10, 0.5, seed)
      if (p.count(g) > 0) {
        val opt = TestUtil.bruteForce(g, p).density
        val r   = PeelApp.run(g, p)
        assert(r.density + 1e-9 >= opt / p.numVertices, s"seed=$seed p=$p")
      }
    }
  }
}

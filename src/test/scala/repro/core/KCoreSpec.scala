package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.LocalGraph

class KCoreSpec extends AnyFunSuite {

  // reference: iterative deletion by definition
  private def bruteCore(g: LocalGraph, k: Int): Set[Int] = {
    var keep = (0 until g.n).toSet
    var changed = true
    while (changed) {
      val bad = keep.filter(v => TestUtil.adj(g, v).count(keep) < k)
      changed = bad.nonEmpty
      keep = keep -- bad
    }
    keep
  }

  test("K5: all core numbers are 4") {
    val dec = KCore.decompose(TestUtil.complete(5))
    assert(dec.core.forall(_ == 4))
    assert(dec.kMax == 4)
  }

  test("path: all core numbers are 1") {
    val dec = KCore.decompose(TestUtil.path(6))
    assert(dec.core.forall(_ == 1))
  }

  test("cycle: all core numbers are 2") {
    assert(KCore.decompose(TestUtil.cycle(8)).core.forall(_ == 2))
  }

  test("star: center and leaves all have core 1") {
    assert(KCore.decompose(TestUtil.star(5)).core.forall(_ == 1))
  }

  test("isolated vertex has core 0") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L)), Seq(9L))
    val dec = KCore.decompose(g)
    assert(dec.core(g.ids.indexOf(9L)) == 0)
  }

  for (seed <- 1 to 10) {
    test(s"random graph seed=$seed: every k-core matches the definitional fixpoint") {
      val g   = TestUtil.randomGraph(30, 0.25, seed)
      val dec = KCore.decompose(g)
      for (k <- 0 to dec.kMax + 1)
        assert(dec.coreVertices(k).toSet == bruteCore(g, k), s"k=$k")
    }
  }

  test("cores are nested") {
    val g   = TestUtil.randomGraph(40, 0.3, 77)
    val dec = KCore.decompose(g)
    for (k <- 1 to dec.kMax)
      assert(dec.coreVertices(k).toSet.subsetOf(dec.coreVertices(k - 1).toSet))
  }

  test("peel order is a degeneracy ordering (back-degree <= kMax)") {
    val g   = TestUtil.randomGraph(40, 0.3, 5)
    val dec = KCore.decompose(g)
    dec.order.indices.foreach { i =>
      val v = dec.order(i)
      val later = TestUtil.adj(g, v).count(u => dec.rank(u) > i)
      assert(later <= dec.kMax)
    }
  }

  test("rank is the inverse of order") {
    val dec = KCore.decompose(TestUtil.randomGraph(25, 0.3, 9))
    dec.order.indices.foreach(i => assert(dec.rank(dec.order(i)) == i))
  }

  test("kMaxCore of figure5 is the K5") {
    val g = TestUtil.figure5
    val dec  = KCore.decompose(g)
    val core = g.induced(dec.coreVertices(dec.kMax))
    assert(core.n == 5 && core.m == 10)
  }

  test("coreVertices equals the filter over core numbers on random, empty and one-vertex graphs") {
    val graphs = (1 to 6).map(seed => TestUtil.randomGraph(40, 0.1 * seed, seed)) ++
      Seq(LocalGraph.fromEdges(Nil), LocalGraph.fromEdges(Nil, Seq(7L)))
    for (g <- graphs) {
      val dec = KCore.decompose(g)
      for (k <- 0 to dec.kMax + 1)
        assert(dec.coreVertices(k).toSeq == dec.core.indices.filter(dec.core(_) >= k), s"$g k=$k")
    }
  }

  test("empty graph decomposes to nothing") {
    val dec = KCore.decompose(LocalGraph.fromEdges(Nil))
    assert(dec.core.isEmpty && dec.kMax == 0)
  }
}

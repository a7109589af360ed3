package repro.cliques

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.LocalGraph
import repro.patterns.Combinatorics.choose
import repro.patterns.Pattern

class CliqueEnumSpec extends AnyFunSuite {

  test("K6 clique counts match binomials for h = 2..6") {
    val g = TestUtil.complete(6)
    for (h <- 2 to 6)
      assert(Pattern.Clique(h).count(g) == choose(6, h), s"h=$h")
  }

  test("h=1 counts vertices") {
    val g = TestUtil.path(5)
    var c = 0
    CliqueEnum.forEach(g, 1)(_ => c += 1)
    assert(c == 5)
  }

  test("path has no triangles") {
    assert(Pattern.Clique(3).count(TestUtil.path(10)) == 0)
  }

  test("cycle of length 3 is one triangle; longer cycles none") {
    assert(Pattern.Clique(3).count(TestUtil.cycle(3)) == 1)
    assert(Pattern.Clique(3).count(TestUtil.cycle(6)) == 0)
  }

  test("edge count equals m for h=2") {
    val g = TestUtil.randomGraph(40, 0.2, 1)
    assert(Pattern.Clique(2).count(g) == g.m)
  }

  test("two triangles sharing an edge (paper Fig 2a): counts and degrees") {
    // A-B-C triangle + A-C-D triangle sharing edge A-C (paper's example:
    // clique-degrees of A, B, C are 2, 1, 2)
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (0L, 3L), (2L, 3L)))
    assert(Pattern.Clique(3).count(g) == 2)
    val deg = Pattern.Clique(3).degrees(g)
    assert(deg(0) == 2 && deg(2) == 2) // A and C
    assert(deg(1) == 1 && deg(3) == 1) // B and D
  }

  test("instances are sorted, distinct, and truly cliques") {
    val g    = TestUtil.randomGraph(30, 0.35, 5)
    val inst = Pattern.Clique(4).instances(g)
    assert(inst.forall(a => a.sorted.sameElements(a)))
    assert(inst.map(_.toSeq).distinct.length == inst.length)
    inst.foreach { a =>
      for (i <- a.indices; j <- (i + 1) until a.length)
        assert(g.hasEdge(a(i), a(j)))
    }
  }

  test("degrees sum to h * count") {
    val g = TestUtil.randomGraph(35, 0.3, 9)
    for (h <- 2 to 5) {
      val d = Pattern.Clique(h).degrees(g)
      assert(d.sum == h * Pattern.Clique(h).count(g), s"h=$h")
    }
  }

  // brute-force reference: enumerate all h-subsets of a small graph
  private def bruteCount(g: LocalGraph, h: Int): Long =
    (0 until g.n).combinations(h).count { s =>
      s.combinations(2).forall(p => g.hasEdge(p(0), p(1)))
    }

  for (seed <- 1 to 8; h <- 2 to 5) {
    test(s"random graph seed=$seed h=$h matches brute-force subset count") {
      val g = TestUtil.randomGraph(12, 0.45, seed)
      assert(Pattern.Clique(h).count(g) == bruteCount(g, h))
    }
  }

  test("planted K8 in sparse noise is found for every h") {
    val base = TestUtil.randomGraph(60, 0.03, 2)
    val g = LocalGraph.fromEdges(
      base.edgesExternal ++ (for (i <- 0 until 8; j <- (i + 1) until 8)
        yield (i.toLong * 7, j.toLong * 7)))
    for (h <- 3 to 6)
      assert(Pattern.Clique(h).count(g) >= choose(8, h), s"h=$h")
  }

  /** The kernel's emitted cliques, in order, each copied. */
  private def emitted(g: LocalGraph, h: Int): Seq[Seq[Int]] = {
    val b = Seq.newBuilder[Seq[Int]]
    CliqueEnum.forEach(g, h)(cl => b += cl.toSeq)
    b.result()
  }

  for (seed <- 1 to 6) {
    test(s"emitted sequence equals the reference enumerator in order for h = 1..5 (seed=$seed)") {
      // G(40, 0.4), and a hub-heavy graph: four hubs adjacent to most of 90
      // vertices over sparse noise, so the out-lists differ widely in length
      val rnd   = new scala.util.Random(seed)
      val edges = for (u <- 0 until 90; v <- (u + 1) until 90
                       if rnd.nextDouble() < (if (u < 4) 0.75 else 0.06)) yield (u.toLong, v.toLong)
      val graphs = Seq(TestUtil.randomGraph(40, 0.4, seed), LocalGraph.fromEdges(edges, 0L until 90L))
      for (g <- graphs) assert(emitted(g, 1) == (0 until g.n).map(Seq(_)))
      for (h <- 2 to 5) {
        val refs = graphs.map(TestUtil.referenceCliques(_, h).map(_.toSeq).toSeq)
        assert(refs.exists(_.nonEmpty), s"h=$h")
        graphs.zip(refs).foreach { case (g, ref) => assert(emitted(g, h) == ref, s"h=$h n=${g.n}") }
      }
    }
  }

  test("empty graph yields no cliques") {
    val g = LocalGraph.fromEdges(Nil)
    assert(Pattern.Clique(3).count(g) == 0)
  }

  for (seed <- 1 to 3) {
    test(s"through(u, live neighbours) lists exactly the h-cliques holding u and no removed vertex, u first, h = 2..5 (seed=$seed)") {
      val g       = TestUtil.randomGraph(30, 0.45, seed)
      val removed = Set(3, 11, 17, 24)
      for (h <- 2 to 5) {
        val e   = new CliqueEnum(g, h)
        val all = TestUtil.referenceCliques(g, h).map(_.toSeq)
        for (u <- 0 until g.n) {
          val rest = TestUtil.adj(g, u).filterNot(removed)
          val b    = Seq.newBuilder[Seq[Int]]
          e.through(u, rest, rest.length) { cl => assert(cl(0) == u); b += cl.sorted.toSeq }
          val got  = b.result()
          val want = all.filter(c => c.contains(u) && c.forall(v => v == u || !removed(v)))
          assert(got.toSet == want.toSet && got.distinct.length == got.length, s"h=$h u=$u")
        }
      }
    }
  }
}

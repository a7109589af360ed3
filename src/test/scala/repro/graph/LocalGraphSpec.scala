package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import scala.collection.mutable

class LocalGraphSpec extends AnyFunSuite {

  test("fromEdges deduplicates parallel and reversed edges") {
    val g = LocalGraph.fromEdges(Seq((1L, 2L), (2L, 1L), (1L, 2L), (2L, 3L)))
    assert(g.n == 3)
    assert(g.m == 2)
  }

  test("fromEdges drops self-loops") {
    val g = LocalGraph.fromEdges(Seq((1L, 1L), (1L, 2L)))
    assert(g.m == 1)
    assert(g.n == 2)
  }

  test("extraVertices adds isolated vertices") {
    val g = LocalGraph.fromEdges(Seq((1L, 2L)), Seq(7L, 8L))
    assert(g.n == 4)
    assert(g.degree(g.ids.indexOf(7L)) == 0)
  }

  test("degrees of K5 are all 4") {
    val g = TestUtil.complete(5)
    assert((0 until 5).forall(g.degree(_) == 4))
    assert(g.m == 10)
    assert(g.maxDegree == 4)
  }

  test("hasEdge agrees with adjacency") {
    val g = TestUtil.randomGraph(20, 0.3, 42)
    for (u <- 0 until g.n; v <- 0 until g.n if u != v)
      assert(g.hasEdge(u, v) == g.adj(u).contains(v), s"($u,$v)")
  }

  test("hasEdge is false on self pairs") {
    val g = TestUtil.complete(4)
    assert((0 until 4).forall(v => !g.hasEdge(v, v)))
  }

  test("edges iterator yields each edge once with u < v") {
    val g  = TestUtil.randomGraph(15, 0.4, 7)
    val es = g.edges.toSeq
    assert(es.size.toLong == g.m)
    assert(es.forall { case (u, v) => u < v })
    assert(es.distinct.size == es.size)
  }

  test("induced subgraph keeps internal edges only") {
    val g   = TestUtil.complete(6)
    val sub = g.induced(Seq(0, 1, 2))
    assert(sub.n == 3)
    assert(sub.m == 3)
  }

  test("induced subgraph preserves external ids") {
    val g   = LocalGraph.fromEdges(Seq((10L, 20L), (20L, 30L), (30L, 40L)))
    val sub = g.induced(Seq(1, 2)) // vertices 20 and 30
    assert(sub.ids.toSet == Set(20L, 30L))
    assert(sub.m == 1)
  }

  test("induced with duplicates in keep set is harmless") {
    val g   = TestUtil.complete(4)
    val sub = g.induced(Seq(0, 1, 1, 0, 2))
    assert(sub.n == 3 && sub.m == 3)
  }

  test("connected components: two triangles") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (10L, 11L), (11L, 12L), (10L, 12L)))
    val sets = g.components(Array.range(0, g.n))
    assert(sets.size == 2)
    assert(sets.map(_.length).sorted == Seq(3, 3))
  }

  test("connected components: path is one component") {
    val g = TestUtil.path(10)
    assert(g.components(Array.range(0, g.n)).size == 1)
  }

  test("isolated vertices are their own components") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L)), Seq(5L, 6L))
    assert(g.components(Array.range(0, g.n)).size == 3)
  }

  test("empty graph") {
    val g = LocalGraph.fromEdges(Nil)
    assert(g.n == 0 && g.m == 0 && g.maxDegree == 0)
    assert(g.components(Array.range(0, g.n)).isEmpty)
  }

  /** The naive build: a HashSet of canonical pairs, a TreeSet of ids. */
  private def naive(edges: Seq[(Long, Long)], extra: Seq[Long]): (Array[Long], Array[Array[Int]]) = {
    val canon = mutable.HashSet.empty[(Long, Long)]
    edges.foreach { case (a, b) => if (a != b) canon += (if (a < b) (a, b) else (b, a)) }
    val ids = (mutable.TreeSet.empty[Long] ++ canon.flatMap(e => Seq(e._1, e._2)) ++ extra).toArray
    val at  = ids.zipWithIndex.toMap
    val adj = Array.fill(ids.length)(mutable.TreeSet.empty[Int])
    canon.foreach { case (a, b) => adj(at(a)) += at(b); adj(at(b)) += at(a) }
    (ids, adj.map(_.toArray))
  }

  for (seed <- 1 to 8) {
    test(s"fromEdges equals the naive HashSet/TreeSet build (seed=$seed)") {
      // ids spread over the whole Long range, with self-loops, duplicates,
      // reversed pairs and extra vertices, some of them also endpoints
      val rnd   = new scala.util.Random(seed)
      val pool  = Array.fill(60)(rnd.nextLong() >> rnd.nextInt(64))
      val edges = Seq.fill(300) {
        val a = pool(rnd.nextInt(pool.length))
        rnd.nextInt(10) match {
          case 0 => (a, a)
          case _ => (a, pool(rnd.nextInt(pool.length)))
        }
      }
      val noisy = edges ++ edges.take(50) ++ edges.take(50).map(_.swap)
      val extra = Seq.fill(10)(if (rnd.nextBoolean()) pool(rnd.nextInt(pool.length)) else rnd.nextLong())
      val g          = LocalGraph.fromEdges(noisy, extra)
      val (ids, adj) = naive(noisy, extra)
      assert(g.ids.toSeq == ids.toSeq)
      assert(g.adj.map(_.toSeq).toSeq == adj.map(_.toSeq).toSeq)
      assert(g.m == adj.map(_.length).sum / 2 && g.maxDegree == adj.map(_.length).max)
    }
  }

  test("edgesExternal round-trips through fromEdges") {
    val g1 = TestUtil.randomGraph(25, 0.2, 3)
    val g2 = LocalGraph.fromEdges(g1.edgesExternal)
    assert(g2.m == g1.m)
    // vertex set may shrink if g1 had isolated vertices; edges must match
    assert(g2.edgesExternal.toSet == g1.edgesExternal.toSet)
  }
}

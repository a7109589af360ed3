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
    assert(TestUtil.maxDegree(g) == 4)
  }

  test("hasEdge agrees with adjacency") {
    val g = TestUtil.randomGraph(20, 0.3, 42)
    for (u <- 0 until g.n; v <- 0 until g.n if u != v)
      assert(g.hasEdge(u, v) == TestUtil.adj(g, u).contains(v), s"($u,$v)")
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
    assert(g.n == 0 && g.m == 0 && TestUtil.maxDegree(g) == 0)
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

  /** `fromEdges` equals the naive build: the same ids, slices, m and maximum degree. */
  private def assertNaive(edges: Seq[(Long, Long)], extra: Seq[Long]): LocalGraph = {
    val g          = LocalGraph.fromEdges(edges, extra)
    val (ids, adj) = naive(edges, extra)
    assert(g.ids.toSeq == ids.toSeq)
    assert((0 until g.n).map(TestUtil.adj(g, _).toSeq) == adj.map(_.toSeq).toSeq)
    assert(g.m == adj.map(_.length).sum / 2 && TestUtil.maxDegree(g) == adj.map(_.length).maxOption.getOrElse(0))
    g
  }

  /** Random edges over `pool`, with self-loops, duplicates and reversed pairs. */
  private def noisyEdges(pool: Array[Long], m: Int, rnd: scala.util.Random): Seq[(Long, Long)] = {
    val edges = Seq.fill(m) {
      val a = pool(rnd.nextInt(pool.length))
      rnd.nextInt(10) match {
        case 0 => (a, a)
        case _ => (a, pool(rnd.nextInt(pool.length)))
      }
    }
    edges ++ edges.take(m / 6) ++ edges.take(m / 6).map(_.swap)
  }

  for (seed <- 1 to 8) {
    test(s"fromEdges equals the naive HashSet/TreeSet build (seed=$seed)") {
      // ids spread over the whole Long range, with self-loops, duplicates,
      // reversed pairs and extra vertices, some of them also endpoints
      val rnd   = new scala.util.Random(seed)
      val pool  = Array.fill(60)(rnd.nextLong() >> rnd.nextInt(64))
      val noisy = noisyEdges(pool, 300, rnd)
      val extra = Seq.fill(10)(if (rnd.nextBoolean()) pool(rnd.nextInt(pool.length)) else rnd.nextLong())
      assertNaive(noisy, extra)
    }
  }

  // id families that collide under a weak hash; 3,000 ids grow the table from 16 to 8,192 slots
  for ((family, id) <- Seq[(String, Int => Long)](
         "consecutive ids"   -> (_.toLong),
         "multiples of 2^32" -> (_.toLong << 32),
         "multiples of 2^48" -> (_.toLong << 48),
         "negative ids"      -> (i => -1L - i))) {
    test(s"fromEdges equals the naive build on $family") {
      val rnd  = new scala.util.Random(family.hashCode)
      val pool = Array.tabulate(3000)(id)
      assertNaive(noisyEdges(pool, 12000, rnd), Seq(id(3000), id(0)))
    }
  }

  test("fromEdges equals the naive build on Long.MinValue, Long.MaxValue, 0 and -1 together") {
    val ends = Seq(Long.MinValue, Long.MaxValue, 0L, -1L)
    val g    = assertNaive(for (a <- ends; b <- ends) yield (a, b), Nil)
    assert(g.ids.toSeq == ends.sorted && g.m == 6)
  }

  test("an id only in extraVertices is an isolated vertex at its sorted place") {
    val g = assertNaive(Seq((5L, 9L), (9L, -3L)), Seq(7L, Long.MinValue, 9L))
    assert(g.ids.toSeq == Seq(Long.MinValue, -3L, 5L, 7L, 9L))
    assert(g.degree(3) == 0 && g.degree(0) == 0)
  }

  test("an input of self-loops only has no edges and only the extra vertices") {
    assert(assertNaive(Seq((4L, 4L), (-1L, -1L), (4L, 4L)), Nil).n == 0)
    val g = assertNaive(Seq((4L, 4L), (-1L, -1L)), Seq(4L))
    assert(g.n == 1 && g.m == 0 && g.off.toSeq == Seq(0, 0))
  }

  for (seed <- 1 to 6) {
    test(s"CSR invariants: offsets rise to 2m, slices strictly increase, every edge in both slices (seed=$seed)") {
      val g = TestUtil.randomGraph(30 + 10 * seed, 0.05 * seed, seed)
      assert(g.off.length == g.n + 1 && g.off(0) == 0 && g.off(g.n) == 2 * g.m)
      assert(g.nbr.length == g.off(g.n))
      for (v <- 0 until g.n) {
        assert(g.off(v) <= g.off(v + 1))
        val a = TestUtil.adj(g, v)
        assert(a.indices.drop(1).forall(i => a(i - 1) < a(i)), s"slice of $v: ${a.toSeq}")
        assert(a.forall(w => w != v && TestUtil.adj(g, w).contains(v)), s"v=$v")
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"inducedWithMap and components equal naive versions on random subsets (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val g   = TestUtil.randomGraph(40, 0.02 * seed, seed)
      val keeps = Seq(Seq.empty[Int], Seq.fill(25)(rnd.nextInt(g.n)), Seq.fill(60)(rnd.nextInt(g.n)),
                      (0 until g.n).filter(_ => rnd.nextBoolean()), 0 until g.n)
      for (keep <- keeps) {
        val kept     = keep.distinct.sorted
        val (s, old) = g.inducedWithMap(keep)
        assert(old.toSeq == kept && s.ids.toSeq == kept.map(g.ids))
        for (i <- kept.indices)
          assert(TestUtil.adj(s, i).toSeq == TestUtil.adj(g, kept(i)).toSeq.filter(kept.contains).map(kept.indexOf(_)))
        val subset = rnd.shuffle(keep).toArray
        assert(g.components(subset).map(_.toSeq) == naiveComponents(g, subset))
      }
    }
  }

  /** Components by repeated set growth, in order of their first vertex in `subset`. */
  private def naiveComponents(g: LocalGraph, subset: Array[Int]): Seq[Seq[Int]] = {
    val in   = subset.toSet
    val done = mutable.Set.empty[Int]
    subset.toSeq.flatMap { s =>
      if (done(s)) None
      else {
        var comp = Set(s)
        var grow = true
        while (grow) {
          val next = comp ++ comp.flatMap(v => TestUtil.adj(g, v)).filter(in)
          grow = next.size > comp.size
          comp = next
        }
        done ++= comp
        Some(comp.toSeq.sorted)
      }
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

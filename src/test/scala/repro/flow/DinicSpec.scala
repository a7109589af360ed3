package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DinicSpec extends AnyFunSuite {

  test("single edge") {
    val d = new Dinic(2)
    d.addEdge(0, 1, 5.0)
    assert(d.maxFlow(0, 1) == 5.0)
  }

  test("two parallel paths") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 3.0); d.addEdge(1, 3, 2.0)
    d.addEdge(0, 2, 4.0); d.addEdge(2, 3, 5.0)
    assert(d.maxFlow(0, 3) == 6.0)
  }

  test("classic CLRS-style network") {
    val d = new Dinic(6)
    d.addEdge(0, 1, 16); d.addEdge(0, 2, 13)
    d.addEdge(1, 3, 12); d.addEdge(2, 1, 4)
    d.addEdge(3, 2, 9); d.addEdge(2, 4, 14)
    d.addEdge(4, 3, 7); d.addEdge(3, 5, 20); d.addEdge(4, 5, 4)
    assert(d.maxFlow(0, 5) == 23.0)
  }

  test("disconnected sink gives zero flow and trivial cut") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 9.0)
    assert(d.maxFlow(0, 2) == 0.0)
    val inS = d.minCutSourceSide(0)
    assert(inS(0) && inS(1) && !inS(2))
  }

  test("min-cut source side separates s from t with saturated frontier") {
    val d = new Dinic(5)
    d.addEdge(0, 1, 1.0); d.addEdge(0, 2, 1.0)
    d.addEdge(1, 3, 0.5); d.addEdge(2, 3, 2.0); d.addEdge(3, 4, 2.0)
    val f = d.maxFlow(0, 4)
    assert(math.abs(f - 1.5) < 1e-9)
    val inS = d.minCutSourceSide(0)
    assert(inS(0) && !inS(4))
  }

  test("fractional capacities are handled exactly enough") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 0.3); d.addEdge(0, 2, 0.7)
    d.addEdge(1, 3, 1.0); d.addEdge(2, 3, 0.5)
    assert(math.abs(d.maxFlow(0, 3) - 0.8) < 1e-9)
  }

  // brute-force min-cut on tiny random networks: enumerate all S subsets
  private def bruteMinCut(n: Int, edges: Seq[(Int, Int, Double)], s: Int, t: Int): Double = {
    var best = Double.MaxValue
    for (bits <- 0 until (1 << n) if (bits & (1 << s)) != 0 && (bits & (1 << t)) == 0) {
      val cut = edges.collect {
        case (u, v, c) if (bits & (1 << u)) != 0 && (bits & (1 << v)) == 0 => c
      }.sum
      best = math.min(best, cut)
    }
    best
  }

  for (seed <- 1 to 10) {
    test(s"random network seed=$seed: max-flow equals brute-force min-cut") {
      val rnd = new Random(seed)
      val n   = 7
      val edges = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.4
      } yield (u, v, math.rint(rnd.nextDouble() * 10) / 2.0)
      val d = new Dinic(n)
      edges.foreach { case (u, v, c) => d.addEdge(u, v, c) }
      val f = d.maxFlow(0, n - 1)
      assert(math.abs(f - bruteMinCut(n, edges, 0, n - 1)) < 1e-9)
    }
  }

  test("100,000-node path: flow is the bottleneck, source side ends at it") {
    val n = 100000
    val d = new Dinic(n)
    (0 until n - 1).foreach(i => d.addEdge(i, i + 1, if (i == 61234) 1.5 else 2.0 + i % 7))
    assert(d.maxFlow(0, n - 1) == 1.5)
    val inS = d.minCutSourceSide(0)
    assert((0 until n).forall(v => inS(v) == (v <= 61234)))
  }

  test("layered network 2,000 layers deep: flow equals the thin layer's cut") {
    // complete bipartite arcs (cap 1) between consecutive layers of width w,
    // except one diagonal-only layer pair: min cut = w, at that pair
    val (layers, w, thin) = (2000, 4, 1234)
    def node(i: Int, j: Int) = 1 + i * w + j
    val t = layers * w + 1
    val d = new Dinic(t + 1)
    (0 until w).foreach { j => d.addEdge(0, node(0, j), 100.0); d.addEdge(node(layers - 1, j), t, 100.0) }
    for (i <- 0 until layers - 1; j <- 0 until w; k <- 0 until w if i != thin || j == k)
      d.addEdge(node(i, j), node(i + 1, k), 1.0)
    assert(d.maxFlow(0, t) == w.toDouble)
    val inS = d.minCutSourceSide(0)
    assert((0 until layers).forall(i => inS(node(i, 0)) == (i <= thin)))
  }

  private def rejects(bad: String)(body: => Any): Unit = {
    val e = intercept[IllegalArgumentException](body)
    assert(e.getMessage.contains(bad), e.getMessage)
  }

  test("addEdge rejects node ids outside [0, n)") {
    val d = new Dinic(3)
    rejects("3")(d.addEdge(0, 3, 1.0))
    rejects("-1")(d.addEdge(-1, 2, 1.0))
  }

  test("addEdge rejects negative, NaN and infinite capacities") {
    val d = new Dinic(3)
    rejects("-0.5")(d.addEdge(0, 1, -0.5))
    rejects("NaN")(d.addEdge(0, 1, Double.NaN))
    rejects("Infinity")(d.addEdge(0, 1, Double.PositiveInfinity))
  }

  test("maxFlow rejects s == t and out-of-range terminals") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 1.0)
    rejects("1")(d.maxFlow(1, 1))
    rejects("5")(d.maxFlow(5, 1))
    rejects("-2")(d.maxFlow(0, -2))
  }

  test("reset restores capacities, so a second maxFlow repeats the first") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 3.0); d.addEdge(1, 3, 2.0)
    val arc = d.addEdge(0, 2, 4.0); d.addEdge(2, 3, 5.0)
    assert(d.maxFlow(0, 3) == 6.0)
    assert(d.maxFlow(0, 3) == 0.0)
    d.reset()
    assert(d.maxFlow(0, 3) == 6.0)
    d.setCapacity(arc, 1.0)
    d.reset()
    assert(d.maxFlow(0, 3) == 3.0)
  }

  /** Random arcs with half-integer capacities, so every flow is exact. */
  private def randomArcs(n: Int, p: Double, seed: Long): IndexedSeq[(Int, Int, Double)] = {
    val rnd = new Random(seed)
    for {
      u <- 0 until n; v <- 0 until n
      if u != v && rnd.nextDouble() < p
    } yield (u, v, math.rint(rnd.nextDouble() * 10) / 2.0)
  }

  private def network(n: Int, arcs: Seq[(Int, Int, Double)]): Dinic = {
    val d = new Dinic(n)
    arcs.foreach { case (u, v, c) => d.addEdge(u, v, c) }
    d
  }

  for (seed <- 1 to 20; (n, p) <- Seq((7, 0.4), (40, 0.12))) {
    test(s"arcs added in a shuffled order give the same flow and cut (n=$n, seed=$seed)") {
      val arcs = randomArcs(n, p, seed)
      val a = network(n, arcs)
      val b = network(n, new Random(seed + 100).shuffle(arcs))
      val f = a.maxFlow(0, n - 1)
      assert(math.abs(f - b.maxFlow(0, n - 1)) < 1e-9)
      if (n <= 7) assert(math.abs(f - bruteMinCut(n, arcs, 0, n - 1)) < 1e-9)
      assert(a.minCutSourceSide(0).toSeq == b.minCutSourceSide(0).toSeq)
    }
  }

  test("addEdge after maxFlow throws: the arcs are laid out once") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 3.0); d.addEdge(1, 3, 2.0)
    assert(d.maxFlow(0, 3) == 2.0)
    val e = intercept[IllegalStateException](d.addEdge(0, 2, 4.0))
    assert(e.getMessage.contains("laid out"))
    assert(d.arcs == 2)
  }

  test("arc ids returned before the layout still address the same arc through setCapacity") {
    val n    = 25
    val arcs = randomArcs(n, 0.15, 7)
    val rnd  = new Random(8)
    val d    = new Dinic(n)
    val ids  = arcs.map { case (u, v, c) => d.addEdge(u, v, c) }
    d.maxFlow(0, n - 1) // lays the arcs out
    val caps = arcs.map(_ => math.rint(rnd.nextDouble() * 10) / 2.0)
    ids.zip(caps).foreach { case (e, c) => d.setCapacity(e, c) }
    d.reset()
    val fresh = network(n, arcs.zip(caps).map { case ((u, v, _), c) => (u, v, c) })
    assert(math.abs(d.maxFlow(0, n - 1) - fresh.maxFlow(0, n - 1)) < 1e-9)
    assert(d.minCutSourceSide(0).toSeq == fresh.minCutSourceSide(0).toSeq)
  }

  for (seed <- 1 to 10) {
    test(s"minCutSourceSide from maxFlow's last BFS equals a fresh BFS (seed=$seed)") {
      val n    = 30
      val arcs = randomArcs(n, 0.12, seed)
      val a    = network(n, arcs)
      val b    = network(n, arcs)
      a.maxFlow(0, n - 1); b.maxFlow(0, n - 1)
      b.setCapacity(0, arcs.head._3) // same capacity, but the levels are no longer trusted
      assert(a.minCutSourceSide(0).toSeq == b.minCutSourceSide(0).toSeq)
    }
  }

  test("minCutSourceSide searches again after reset, setCapacity, addEdge or another source") {
    // 0 -> 1 -> 2 -> 3 with the cut at 1 -> 2; 2 -> 4 hangs off the sink side
    val d = new Dinic(5)
    d.addEdge(0, 1, 5.0); val mid = d.addEdge(1, 2, 1.0); d.addEdge(2, 3, 5.0); d.addEdge(2, 4, 1.0)
    assert(d.maxFlow(0, 3) == 1.0)
    assert(d.minCutSourceSide(0).toSeq == Seq(true, true, false, false, false))
    // from source 2, not maxFlow's source: 2 reaches 1 and 0 back along the flow
    assert(d.minCutSourceSide(2).toSeq == Seq(true, true, true, true, true))
    d.reset() // no flow: all of 0's reach is on the source side
    assert(d.minCutSourceSide(0).toSeq == Seq(true, true, true, true, true))
    assert(d.maxFlow(0, 3) == 1.0)
    d.setCapacity(mid, 2.0) // not effective before reset: the residual is unchanged
    assert(d.minCutSourceSide(0).toSeq == Seq(true, true, false, false, false))
    assert(d.maxFlow(0, 3) == 0.0)
  }

  /** Random opposite-arc pairs (u, v, a, b) with half-integer capacities,
    * b = 0 for about a third of them. */
  private def randomPairs(n: Int, p: Double, seed: Long): IndexedSeq[(Int, Int, Double, Double)] = {
    val rnd = new Random(seed)
    for {
      u <- 0 until n; v <- 0 until n
      if u != v && rnd.nextDouble() < p
    } yield (u, v, math.rint(rnd.nextDouble() * 10) / 2.0,
             if (rnd.nextInt(3) == 0) 0.0 else math.rint(rnd.nextDouble() * 10) / 2.0)
  }

  for (seed <- 1 to 20; (n, p) <- Seq((7, 0.25), (40, 0.06))) {
    test(s"a paired arc gives the same flow and cut as two arcs (n=$n, seed=$seed)") {
      val pairs  = randomPairs(n, p, seed)
      val paired = new Dinic(n)
      pairs.foreach { case (u, v, a, b) => paired.addEdge(u, v, a, b) }
      val arcs   = pairs.flatMap { case (u, v, a, b) => Seq((u, v, a), (v, u, b)) }
      val two    = network(n, arcs)
      val f      = paired.maxFlow(0, n - 1)
      assert(math.abs(f - two.maxFlow(0, n - 1)) < 1e-9)
      if (n <= 7) assert(math.abs(f - bruteMinCut(n, arcs, 0, n - 1)) < 1e-9)
      assert(paired.minCutSourceSide(0).toSeq == two.minCutSourceSide(0).toSeq)
    }
  }

  test("reset restores the back capacity of a paired arc") {
    // 0 -> 1 only through the back capacity of 1 -> 0
    val d = new Dinic(3)
    d.addEdge(1, 0, 5.0, 3.0); d.addEdge(1, 2, 10.0)
    assert(d.maxFlow(0, 2) == 3.0)
    assert(d.maxFlow(0, 2) == 0.0)
    d.reset()
    assert(d.maxFlow(0, 2) == 3.0)
  }

  test("setCapacity on a paired arc changes only its forward capacity") {
    // forward 0 -> 1 (2.0) feeds 1 -> 3; back 1 -> 0 (3.0) carries 2 -> 1 -> 0
    val d = new Dinic(4)
    val e = d.addEdge(0, 1, 2.0, 3.0); d.addEdge(1, 3, 10.0); d.addEdge(2, 1, 10.0)
    assert(d.maxFlow(0, 3) == 2.0)
    d.setCapacity(e, 4.0)
    d.reset()
    assert(d.maxFlow(0, 3) == 4.0)
    d.reset()
    assert(d.maxFlow(2, 0) == 3.0)
  }

  test("arcs counts a pair with a positive back capacity twice") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 1.0, 2.0); d.addEdge(1, 2, 1.0); d.addEdge(2, 0, 1.0, 0.0)
    assert(d.arcs == 4)
    d.addEdge(0, 2, 0.0, 0.5)
    assert(d.arcs == 6)
  }

  test("addEdge rejects a negative, NaN or infinite back capacity") {
    val d = new Dinic(3)
    rejects("-0.5")(d.addEdge(0, 1, 1.0, -0.5))
    rejects("NaN")(d.addEdge(0, 1, 1.0, Double.NaN))
    rejects("Infinity")(d.addEdge(0, 1, 1.0, Double.PositiveInfinity))
    assert(d.arcs == 0)
  }
}

package repro.patterns

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{CliqueCore, CoreApp, Densest, PeelApp}
import repro.graph.LocalGraph

/** Appendix-D optimized star / diamond decompositions must be
  * output-equivalent to the generic instance-materializing peel, and on
  * stars too many to list to a peel that recounts Eq. 25 after every
  * removal; a star count that does not fit a Long is refused by name.
  */
class SpecialCoresSpec extends AnyFunSuite {

  for (seed <- 1 to 8; x <- Seq(2, 3)) {
    test(s"$x-star optimized decomposition matches the generic peel (seed=$seed)") {
      val g = TestUtil.randomGraph(25, 0.25, seed)
      val a = SpecialCores.decomposeStar(g, x)
      val b = CliqueCore.decompose(g, Pattern.Star(x))
      assert(a.core.toSeq == b.core.toSeq)
      assert(a.totalInstances == b.totalInstances)
      assert(math.abs(a.bestDensity - b.bestDensity) < 1e-9)
      assert(a.bestInstances == b.bestInstances)
    }
  }

  for (seed <- 1 to 8) {
    test(s"diamond optimized decomposition matches the generic peel (seed=$seed)") {
      val g = TestUtil.randomGraph(18, 0.35, seed)
      val a = SpecialCores.decomposeDiamond(g)
      val b = CliqueCore.decompose(g, Pattern.Diamond)
      assert(a.core.toSeq == b.core.toSeq)
      assert(a.totalInstances == b.totalInstances)
      assert(math.abs(a.bestDensity - b.bestDensity) < 1e-9)
      assert(a.bestInstances == b.bestInstances)
    }
  }

  test("star decomposition on a pure star: center and leaves share core k") {
    // K1,5 with x=2: every vertex lies in some 2-star; peeling a leaf
    // removes C(4,1)=4 instances, etc. Just check agreement + sane kMax.
    val g = TestUtil.star(5)
    val a = SpecialCores.decomposeStar(g, 2)
    val b = CliqueCore.decompose(g, Pattern.Star(2))
    assert(a.core.toSeq == b.core.toSeq)
    assert(a.kMax == b.kMax)
  }

  test("diamond decomposition of K5: every vertex has C4-core 9") {
    // K5 contains 3*C(5,4)=15 C4s; each vertex lies in 3*C(4,3)... check
    // against the generic peel rather than hand-derived numbers.
    val g = TestUtil.complete(5)
    val a = SpecialCores.decomposeDiamond(g)
    val b = CliqueCore.decompose(g, Pattern.Diamond)
    assert(a.core.toSeq == b.core.toSeq)
  }

  test("empty graphs") {
    val g = LocalGraph.fromEdges(Nil)
    assert(SpecialCores.decomposeStar(g, 2).core.isEmpty)
    assert(SpecialCores.decomposeDiamond(g).core.isEmpty)
  }

  test("triangle-free path: star cores positive, diamond cores zero") {
    val g = TestUtil.path(6)
    val s = SpecialCores.decomposeStar(g, 2)
    assert(s.totalInstances == 4) // one 2-star per internal vertex
    val d = SpecialCores.decomposeDiamond(g)
    assert(d.totalInstances == 0)
    assert(d.core.forall(_ == 0))
  }

  for (seed <- 1 to 8; x <- Seq(2, 3)) {
    test(s"$x-star optimized peel order and best suffix equal the generic peel (seed=$seed)") {
      val g = TestUtil.randomGraph(25, 0.25, seed)
      val a = SpecialCores.decomposeStar(g, x)
      val b = CliqueCore.decompose(g, Pattern.Star(x))
      assert(a.order.toSeq == b.order.toSeq)
      assert(a.bestSuffix == b.bestSuffix)
    }
  }

  for (seed <- 1 to 8) {
    test(s"diamond optimized peel order and best suffix equal the generic peel (seed=$seed)") {
      val g = TestUtil.randomGraph(18, 0.35, seed)
      val a = SpecialCores.decomposeDiamond(g)
      val b = CliqueCore.decompose(g, Pattern.Diamond)
      assert(a.order.toSeq == b.order.toSeq)
      assert(a.bestSuffix == b.bestSuffix)
    }
  }

  /** Vertices 0 and 1 are adjacent hubs; each has `leaves` leaves of its own. */
  private def twoHubs(leaves: Int) =
    LocalGraph.fromEdges((0L, 1L) +: (0 until 2 * leaves).map(i => ((i % 2).toLong, i + 2L)))

  test("4-star degrees and count are refused by name where they do not fit a Long (two hubs, 130k leaves each)") {
    // C(130001, 4) > Long.MaxValue: each hub's center term does not fit,
    // while a leaf's C(130000, 3) does
    val g = twoHubs(130000)
    val e = intercept[ArithmeticException](Pattern.Star(4).degrees(g))
    assert(e.getMessage.matches("the 4-star degree of vertex [01] does not fit a Long"), e.getMessage)
    TestUtil.refused("the 4-star count")(Pattern.Star(4).count(g))
  }

  test("the 8-star decomposition is refused by name where a hub's degree does not fit a Long (two hubs, 900 leaves each)") {
    // C(901, 8) > Long.MaxValue > C(887, 8)
    val g = twoHubs(900)
    TestUtil.refused("8-star degree of vertex")(SpecialCores.decomposeStar(g, 8))
    TestUtil.refused("8-star degree of vertex")(SpecialCores.decompose(g, Pattern.Star(8)))
  }

  test("CoreApp refuses the 8-star where a degree does not fit a Long (two hubs, 900 leaves each)") {
    TestUtil.refused("8-star degree of vertex")(CoreApp.kMaxCore(twoHubs(900), Pattern.Star(8)))
  }

  test("the 8-star peel is refused by its count where every degree fits (two disjoint K_{1,887})") {
    // each center holds C(887, 8) stars, which fits; the two together do not
    val g   = LocalGraph.fromEdges((1 to 887).flatMap(i => Seq((0L, i.toLong), (1000L, 1000L + i))))
    val deg = Pattern.Star(8).degrees(g)
    assert(deg.max == Combinatorics.choose(887, 8))
    TestUtil.refused("the 8-star count")(Pattern.Star(8).count(g))
    TestUtil.refused("the 8-star count")(SpecialCores.decompose(g, Pattern.Star(8)))
    TestUtil.refused("the 8-star count")(PeelApp.run(g, Pattern.Star(8)))
  }

  /** Three hubs, each adjacent to most of 80 vertices, over sparse noise: a
    * hub's removal changes the pattern-degree of nearly every vertex. */
  private def threeHubs = {
    val rnd   = new scala.util.Random(5)
    val edges = for (u <- 0 until 80; v <- (u + 1) until 80
                     if rnd.nextDouble() < (if (u < 3) 0.7 else 0.04)) yield (u.toLong, v.toLong)
    LocalGraph.fromEdges(edges, 0L until 80L)
  }

  test("diamond optimized peel equals the generic peel on a hub-heavy graph") {
    val g = threeHubs
    val a = SpecialCores.decomposeDiamond(g)
    val b = CliqueCore.decompose(g, Pattern.Diamond)
    assert(a.core.toSeq == b.core.toSeq)
    assert(a.order.toSeq == b.order.toSeq)
    assert(a.bestSuffix == b.bestSuffix)
    assert(a.totalInstances == b.totalInstances)
    assert(a.bestInstances == b.bestInstances)
    assert(a.kMax > 0)
  }

  private val inputs: Seq[(String, () => LocalGraph)] =
    (1 to 3).map(seed => s"G(30, 0.3) seed $seed" -> (() => TestUtil.randomGraph(30, 0.3, seed))) ++
      Seq("three hubs" -> (() => threeHubs), "dense G(60, 0.5)" -> (() => TestUtil.randomGraph(60, 0.5, 7)))

  for (psi <- Seq(Pattern.Edge, Pattern.Star(2), Pattern.Star(3), Pattern.Star(4), Pattern.Diamond); (name, graph) <- inputs) {
    test(s"${psi.name} closed-form peel equals the generic peel on every Result field ($name)") {
      val g = graph()
      val b = CliqueCore.decomposeInstances(g.n, psi.instances(g))
      assert(b.totalInstances > 0)
      assert(TestUtil.peelFields(SpecialCores.decompose(g, psi)) == TestUtil.peelFields(b))
    }
  }

  /** Reference x-star peel, O(n·m): before each removal, recount Eq. 25 for
    * every live vertex from the residual edge-degrees and remove the one of
    * smallest (degree, id). μ is recounted too. μ of the (k_max, x-star)-core
    * is counted at the end from the core's own degrees. Every sum is
    * `Math.addExact`, so a count that does not fit a Long throws.
    */
  private def referenceStarPeel(g: LocalGraph, x: Int): CliqueCore.Result = {
    import Combinatorics.choose
    def add(t: Long, c: Long) = if (c == Long.MaxValue) throw new ArithmeticException("C(n, x) does not fit a Long") else Math.addExact(t, c)
    val n     = g.n
    val alive = Array.fill(n)(true)
    val d     = Array.tabulate(n)(g.degree)
    val deg   = new Array[Long](n)
    val core  = new Array[Long](n)
    val order = new Array[Int](n)
    val mu0   = (0 until n).foldLeft(0L)((t, v) => add(t, choose(d(v), x)))
    var mu    = mu0
    var k     = 0L
    var (bestMu, bestSuffix) = (mu0, 0)
    for (step <- 0 until n) {
      val live = (0 until n).filter(alive)
      live.foreach(v => deg(v) = TestUtil.adj(g, v).filter(alive).foldLeft(add(0L, choose(d(v), x)))((t, u) => add(t, choose(d(u) - 1, x - 1))))
      val v = live.minBy(u => (deg(u), u))
      k = math.max(k, deg(v))
      core(v) = k
      order(step) = v
      alive(v) = false
      TestUtil.adj(g, v).foreach(d(_) -= 1)
      mu = live.filter(alive).foldLeft(0L)((t, u) => add(t, choose(d(u), x)))
      val rest = n - step - 1
      if (rest > 0 && mu.toDouble / rest > bestMu.toDouble / (n - bestSuffix)) {
        bestMu = mu
        bestSuffix = step + 1
      }
    }
    val inCore = core.map(_ >= k)
    val kMaxMu = (0 until n).filter(inCore).foldLeft(0L)((t, v) => add(t, choose(TestUtil.adj(g, v).count(inCore), x)))
    CliqueCore.Result(core, order, mu0, bestMu, bestSuffix, kMaxMu)
  }

  private val names = Seq("edge", "triangle", "4-clique", "5-clique", "6-clique", "2-star", "3-star",
                          "4-star", "diamond", "2-triangle", "4-path", "tailed-triangle")

  for (name <- names; seed <- 1 to 3) {
    test(s"$name decomposition reports μ of its (k_max, Ψ)-core, and every field equals the reference peel's (seed=$seed)") {
      val psi  = Pattern.byName(name)
      val g    = TestUtil.randomGraph(16, 0.4, seed)
      val inst = TestUtil.generic(psi)(g)
      val ref  = TestUtil.referencePeel(g.n, inst)
      for (dec <- Seq(SpecialCores.decompose(g, psi), CliqueCore.decompose(g, psi))) {
        assert(dec.kMaxInstances == Densest.countWithin(inst, g.n, dec.kMaxCoreVertices))
        assert(TestUtil.peelFields(dec) == TestUtil.peelFields(ref))
        assert(dec.kMaxCore.vertices.toSeq == dec.kMaxCoreVertices.toSeq)
      }
    }
  }

  test("a graph with no instances has its whole vertex set as (0, Ψ)-core, with μ 0") {
    for (psi <- Seq(Pattern.Triangle, Pattern.Star(3), Pattern.Diamond)) {
      val dec = SpecialCores.decompose(TestUtil.path(3), psi)
      assert(dec.kMax == 0 && dec.kMaxCore.size == 3 && dec.kMaxInstances == 0, psi.name)
    }
  }

  private val starInputs: Seq[(Int, String, () => LocalGraph)] =
    Seq((900, 6), (900, 7), (2000, 6)).map { case (leaves, x) => (x, s"two hubs, $leaves leaves each", () => twoHubs(leaves)) } :+
      ((8, "K_{1,887}", () => TestUtil.star(887)))

  for ((x, name, graph) <- starInputs) {
    test(s"$x-star closed-form peel equals the recounting reference on every Result field ($name)") {
      val g = graph()
      assert(TestUtil.peelFields(SpecialCores.decomposeStar(g, x)) == TestUtil.peelFields(referenceStarPeel(g, x)))
    }
  }

  for ((leaves, x) <- Seq((900, 8), (2000, 7))) {
    test(s"$x-star closed-form peel and the recounting reference both refuse a count that does not fit a Long (two hubs, $leaves leaves each)") {
      val g = twoHubs(leaves)
      TestUtil.refused(s"$x-star")(SpecialCores.decomposeStar(g, x))
      intercept[ArithmeticException](referenceStarPeel(g, x))
    }
  }

  /** K_{a,b}: dense, with no triangle. */
  private def completeBipartite(a: Int, b: Int) =
    LocalGraph.fromEdges(for (u <- 0 until a; v <- a until a + b) yield (u.toLong, v.toLong))

  private val cliqueInputs: Seq[(String, () => LocalGraph)] =
    (1 to 3).map(seed => s"G(30, 0.5) seed $seed" -> (() => TestUtil.randomGraph(30, 0.5, seed))) ++
      (1 to 2).map(seed => s"G(45, 0.25) seed $seed" -> (() => TestUtil.randomGraph(45, 0.25, seed))) ++
      (1 to 2).map(seed => s"planted K12 seed $seed" ->
        (() => repro.data.SynthGraphs.plantClique(repro.data.SynthGraphs.powerLaw(200, 700, 2.5, seed), 12, seed))) ++
      Seq("two hubs, 40 leaves" -> (() => TestUtil.twoHubs(40)),
          "three hubs"          -> (() => threeHubs),
          "K9"                  -> (() => TestUtil.complete(9)),
          "K(6, 7)"             -> (() => completeBipartite(6, 7)),
          "isolated vertices"   -> (() => LocalGraph.fromEdges(Nil, 0L until 5L)),
          "empty graph"         -> (() => LocalGraph.fromEdges(Nil)))

  for (h <- 3 to 6; (name, graph) <- cliqueInputs) {
    test(s"$h-clique peel that lists again equals the store peel on every Result field ($name)") {
      val g = graph()
      val a = SpecialCores.decompose(g, Pattern.Clique(h))
      val b = CliqueCore.decompose(g, Pattern.Clique(h))
      assert(TestUtil.peelFields(a) == TestUtil.peelFields(b))
      assert(a.core.length == g.n)
    }
  }

  test("the clique peels that list again are not vacuous: each h = 3..6 peels instances on at least five inputs") {
    for (h <- 3 to 6)
      assert(cliqueInputs.count { case (_, graph) => SpecialCores.decompose(graph(), Pattern.Clique(h)).kMax > 0 } >= 5, s"h=$h")
  }

  test("the clique peel that lists again rejects h < 3") {
    intercept[IllegalArgumentException](SpecialCores.decomposeCliques(TestUtil.complete(4), 2))
  }
}

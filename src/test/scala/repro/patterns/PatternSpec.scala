package repro.patterns

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.SynthGraphs
import repro.graph.LocalGraph
import repro.patterns.Combinatorics.choose

class PatternSpec extends AnyFunSuite {

  private val named: Seq[Pattern] = Seq(
    Pattern.Triangle, Pattern.Clique(4), Pattern.Star(2), Pattern.Star(3),
    Pattern.Diamond, Pattern.TwoTriangle, Pattern.Path4, Pattern.TailedTriangle)

  test("choose basics") {
    assert(choose(5, 2) == 10)
    assert(choose(5, 0) == 1)
    assert(choose(4, 5) == 0)
    assert(choose(-1, 2) == 0)
    assert(choose(52, 5) == 2598960L)
  }

  /** choose(n, k) must be C(n, k) where it fits a Long, Long.MaxValue
    * where it does not. */
  private def assertChoose(n: Int, k: Int, exact: BigInt): Unit =
    assert(BigInt(choose(n, k)) == exact.min(BigInt(Long.MaxValue)), s"C($n, $k)")

  test("choose equals the BigInt binomial for every 0 <= k <= n <= 1000") {
    var row = Array(BigInt(1))
    for (n <- 0 to 1000) {
      for (k <- 0 to n) assertChoose(n, k, row(k))
      row = Array.tabulate(n + 2)(k => (if (k > 0) row(k - 1) else BigInt(0)) + (if (k <= n) row(k) else BigInt(0)))
    }
  }

  test("choose does not overflow just below saturation") {
    def exact(n: Int, k: Int) = (1 to k).foldLeft(BigInt(1))((acc, i) => acc * (n - k + i) / i)
    // both ends of each range of n where the product overflowed first, and
    // points inside them
    val cases = Seq((62, 31), (685, 8), (700, 8), (813, 8), (3219, 6), (3500, 6), (3864, 6),
                    (11725, 5), (12000, 5), (14082, 5), (86252, 4), (90000, 4), (102570, 4),
                    (2642247, 3), (2700000, 3), (3024617, 3))
    for ((n, k) <- cases) {
      assert(choose(n, k) > 0, s"C($n, $k)")
      assertChoose(n, k, exact(n, k))
    }
    assert(choose(62, 31) == 465428353255261088L)
    // the largest C(n, 8) that fits a Long, and the first that does not
    assert(choose(887, 8) == 9207044098280898870L && choose(888, 8) == Long.MaxValue)
  }

  test("8-star degrees are Eq. 25 in BigInt where C(701, 8) used to overflow (two hubs, 700 leaves)") {
    val g   = TestUtil.twoHubs(700)
    val deg = Pattern.Star(8).degrees(g)
    def c(n: Int, k: Int) = if (n < k) BigInt(0) else (1 to k).foldLeft(BigInt(1))((acc, i) => acc * (n - k + i) / i)
    for (v <- 0 until g.n) {
      val eq25 = TestUtil.adj(g, v).foldLeft(c(g.degree(v), 8))((t, u) => t + c(g.degree(u) - 1, 7))
      assert(BigInt(deg(v)) == eq25, s"v=$v")
    }
  }

  test("Clique(h < 2) and Star(x < 2) are refused, naming the value") {
    for (h <- Seq(1, 0, -3)) {
      val e = intercept[IllegalArgumentException](Pattern.Clique(h))
      assert(e.getMessage.contains(s"h >= 2, got $h"), e.getMessage)
    }
    for (x <- Seq(1, 0, -3)) {
      val e = intercept[IllegalArgumentException](Pattern.Star(x))
      assert(e.getMessage.contains(s"x >= 2, got $x"), e.getMessage)
    }
  }

  test("2-star count on a star graph is C(t, 2)") {
    for (t <- 2 to 6)
      assert(Pattern.Star(2).count(TestUtil.star(t)) == choose(t, 2), s"t=$t")
  }

  test("2-star instances on triangle: 3 (one per center)") {
    assert(Pattern.Star(2).instances(TestUtil.cycle(3)).length == 3)
  }

  test("star degrees: center and tail contributions (Eq. 25)") {
    val g = TestUtil.star(4) // center 0, leaves 1..4
    val d = Pattern.Star(2).degrees(g)
    assert(d(0) == choose(4, 2)) // center of C(4,2) stars
    assert(d(1) == choose(3, 1)) // tail of stars centered at 0 with 1 present
  }

  test("diamond (C4) count in K4 is 3") {
    assert(Pattern.Diamond.count(TestUtil.complete(4)) == 3)
    assert(Pattern.Diamond.instances(TestUtil.complete(4)).length == 3)
  }

  test("diamond count in C4 is 1, in C5 is 0") {
    assert(Pattern.Diamond.count(TestUtil.cycle(4)) == 1)
    assert(Pattern.Diamond.count(TestUtil.cycle(5)) == 0)
  }

  test("diamond degrees in K4: every vertex in all 3 cycles") {
    val d = Pattern.Diamond.degrees(TestUtil.complete(4))
    assert(d.forall(_ == 3))
  }

  test("2-triangle count in K4 is 6 (one per shared edge)") {
    assert(Pattern.TwoTriangle.count(TestUtil.complete(4)) == 6)
  }

  test("2-triangle in the bowtie-free diamond graph is 1") {
    // C4 + one chord = exactly one pair of triangles sharing the chord
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L), (0L, 2L)))
    assert(Pattern.TwoTriangle.count(g) == 1)
  }

  test("4-path count in P4 is 1, in C4 is 4") {
    assert(Pattern.Path4.count(TestUtil.path(4)) == 1)
    assert(Pattern.Path4.count(TestUtil.cycle(4)) == 4)
  }

  test("tailed triangle count in K4 is 12 (non-induced: 4 triangles x 3 tails)") {
    assert(Pattern.TailedTriangle.count(TestUtil.complete(4)) == 12)
  }

  test("tailed triangle: triangle plus pendant") {
    val g = LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L), (0L, 2L), (2L, 3L)))
    assert(Pattern.TailedTriangle.count(g) == 1)
  }

  test("instance arrays are sorted vertex sets of the right size") {
    val g = TestUtil.randomGraph(15, 0.4, 3)
    named.foreach { p =>
      p.instances(g).foreach { a =>
        assert(a.length == p.numVertices, p.name)
        assert(a.sorted.sameElements(a), p.name)
        assert(a.distinct.length == a.length, p.name)
      }
    }
  }

  test("degrees sum equals numVertices * count for every named pattern") {
    val g = TestUtil.randomGraph(14, 0.45, 4)
    named.foreach { p =>
      val viaInst = {
        val d = new Array[Long](g.n)
        p.instances(g).foreach(_.foreach(v => d(v) += 1))
        d
      }
      assert(p.degrees(g).toSeq == viaInst.toSeq, s"${p.name}: closed-form vs instance degrees")
      assert(viaInst.sum == p.numVertices.toLong * p.instances(g).length, p.name)
    }
  }

  // Cross-check every specialized enumerator against the generic
  // subgraph-isomorphism enumerator (instances = distinct edge sets).
  for (seed <- 1 to 6; p <- named) {
    test(s"${p.name} matches generic enumerator on random graph seed=$seed") {
      val g   = TestUtil.randomGraph(10, 0.5, seed)
      val a   = p.instances(g).map(_.mkString(",")).sorted
      val b   = TestUtil.generic(p)(g).map(_.mkString(",")).sorted
      // counts must match exactly; multisets of vertex sets must match
      assert(a.length == b.length, s"${p.name}: ${a.length} vs ${b.length}")
      assert(a.sameElements(b))
    }
  }

  test("generic diamond on K4 also returns 3 instances") {
    assert(TestUtil.generic(Pattern.Diamond)(TestUtil.complete(4)).length == 3)
  }

  test("generic clique agrees with CliqueEnum") {
    val g = TestUtil.randomGraph(12, 0.5, 11)
    for (h <- 3 to 5)
      assert(TestUtil.generic(Pattern.Clique(h))(g).length ==
             Pattern.Clique(h).count(g), s"h=$h")
  }

  test("byName resolves all documented names") {
    assert(Pattern.byName("edge") == Pattern.Edge)
    assert(Pattern.byName("triangle") == Pattern.Triangle)
    assert(Pattern.byName("2-star") == Pattern.Star(2))
    assert(Pattern.byName("c3-star") == Pattern.Star(3))
    assert(Pattern.byName("diamond") == Pattern.Diamond)
    assert(Pattern.byName("2-triangle") == Pattern.TwoTriangle)
    assert(Pattern.byName("6-clique") == Pattern.Clique(6))
    intercept[IllegalArgumentException](Pattern.byName("heptagon"))
  }

  test("pattern counts on empty and tiny graphs are zero") {
    val empty = LocalGraph.fromEdges(Nil)
    named.foreach(p => assert(p.count(empty) == 0, p.name))
    val single = LocalGraph.fromEdges(Seq((0L, 1L)))
    named.foreach(p => assert(p.count(single) == 0, p.name))
  }

  private def instanceDegrees(g: LocalGraph, inst: Array[Array[Int]]): Seq[Long] = {
    val d = new Array[Long](g.n)
    inst.foreach(_.foreach(v => d(v) += 1))
    d.toSeq
  }

  test("diamond on K_{2,50}: C(50, 2) instances, degrees equal the closed form") {
    // sides {0, 1} and {2, ..., 51}: every C4 is 0 and 1 with two of the 50
    val g    = LocalGraph.fromEdges(for (a <- 0L to 1L; b <- 2L to 51L) yield (a, b))
    val inst = Pattern.Diamond.instances(g)
    assert(inst.length == choose(50, 2))
    assert(instanceDegrees(g, inst) == Pattern.Diamond.degrees(g).toSeq)
  }

  for (seed <- 1 to 6) {
    test(s"diamond on a power-law graph with a planted clique equals the naive reference (seed=$seed)") {
      val g    = SynthGraphs.plantClique(SynthGraphs.powerLaw(300, 900, 2.5, seed), 12, seed)
      val inst = Pattern.Diamond.instances(g)
      assert(instanceDegrees(g, inst) == Pattern.Diamond.degrees(g).toSeq)
      val ref = TestUtil.naiveDiamonds(g)
      assert(inst.length == ref.length)
      assert(inst.map(_.mkString(",")).sorted.sameElements(ref.map(_.mkString(",")).sorted))
    }
  }

  // (μ, hash of the emitted ids in order) on G(13, 0.5) seed 12, recorded
  // from `instances` before every pattern listed through one `forEach`: the
  // emission order is part of the contract (the flow network's group order
  // follows it).
  private val emissions: Seq[(Pattern, Int, Long)] = Seq(
    (Pattern.Edge, 42, 477054258818371558L), (Pattern.Triangle, 46, -6275014847242373625L),
    (Pattern.Clique(4), 21, -2269731259941186646L), (Pattern.Clique(5), 3, -7391804021965467697L),
    (Pattern.Star(2), 246, -8562612517758706354L), (Pattern.Star(3), 438, -4403100522055707262L),
    (Pattern.Diamond, 170, -169658387453672934L), (Pattern.TwoTriangle, 208, -3228922361211121437L),
    (Pattern.Path4, 1291, 3079503152475394773L), (Pattern.TailedTriangle, 730, 7130633979207511709L))

  // the same for the reference lister, recorded from it as a `Pattern`
  private val genericEmissions: Seq[(Pattern, Int, Long)] = Seq(
    (Pattern.Edge, 42, 4660150373700139966L), (Pattern.Triangle, 46, -3288459500581851255L),
    (Pattern.Clique(4), 21, 5946662988758656810L), (Pattern.Clique(5), 3, -7391804021965467697L),
    (Pattern.Star(2), 246, 2033842627469404516L), (Pattern.Star(3), 438, 2027582834256633522L),
    (Pattern.Diamond, 170, 4823407446666309482L), (Pattern.TwoTriangle, 208, -2418941311876764653L),
    (Pattern.Path4, 1291, -2489941164643411099L), (Pattern.TailedTriangle, 730, -1878267747407130531L))

  private def emissionHash(inst: Array[Array[Int]]): Long = inst.foldLeft(17L)((h, a) => a.foldLeft(h)(_ * 1000003L + _))

  for ((p, mu, hash) <- emissions) {
    test(s"${p.name}: count, instances and forEach give the recorded emission sequence") {
      val g = TestUtil.randomGraph(13, 0.5, 12)
      var viaForEach = 17L
      var emitted    = 0
      p.forEach(g) { a => a.foreach(v => viaForEach = viaForEach * 1000003L + v); emitted += 1 }
      val inst = p.instances(g)
      assert(p.count(g) == inst.length && inst.length == mu && emitted == mu)
      assert(viaForEach == hash && emissionHash(inst) == hash)
    }
  }

  for ((p, mu, hash) <- genericEmissions) {
    test(s"generic-${p.name}: count, instances and forEach give the recorded emission sequence") {
      val g    = TestUtil.randomGraph(13, 0.5, 12)
      val inst = TestUtil.generic(p)(g)
      assert(inst.length == mu && emissionHash(inst) == hash)
    }
  }

  private val edgeInputs: Seq[(String, LocalGraph)] =
    (1 to 4).map(seed => s"G(20, 0.3) seed $seed" -> TestUtil.randomGraph(20, 0.3, seed)) ++ Seq(
      "the empty graph"              -> LocalGraph.fromEdges(Nil),
      "a path and isolated vertices" -> LocalGraph.fromEdges(Seq((0L, 1L), (1L, 2L)), 0L until 7L),
      "isolated vertices only"       -> LocalGraph.fromEdges(Nil, 0L until 5L))

  for ((name, g) <- edgeInputs) {
    test(s"edge degrees and count in closed form equal the listing's ($name)") {
      val inst = Pattern.Edge.instances(g)
      assert(Pattern.Edge.degrees(g).toSeq == instanceDegrees(g, inst))
      assert(Pattern.Edge.count(g) == inst.length)
    }
  }
}

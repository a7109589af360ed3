package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.KCore
import repro.patterns.Pattern

class SynthGraphsSpec extends AnyFunSuite {

  test("er is deterministic in (n, p, seed)") {
    val a = TestUtil.randomGraph(50, 0.1, 5)
    val b = TestUtil.randomGraph(50, 0.1, 5)
    assert(a.edgesExternal == b.edgesExternal)
  }

  test("er edge count is near expectation") {
    val g = TestUtil.randomGraph(200, 0.05, 1)
    val exp = 0.05 * 200 * 199 / 2
    assert(math.abs(g.m - exp) < 4 * math.sqrt(exp))
  }

  test("erM hits the requested edge count exactly") {
    val g = SynthGraphs.erM(100, 500, 2)
    assert(g.m == 500)
    assert(g.n == 100)
  }

  test("erM rejects more edges than the vertices have pairs, naming both numbers") {
    val e = intercept[IllegalArgumentException](SynthGraphs.erM(16, 121))
    assert(e.getMessage.contains("121") && e.getMessage.contains("16") && e.getMessage.contains("120"), e.getMessage)
    // the ER stand-in at scale 1e-4 asks for 483 edges on 16 vertices
    val s = intercept[IllegalArgumentException](SynthGraphs.standIn("ER", 1e-4))
    assert(s.getMessage.contains("483") && s.getMessage.contains("16"), s.getMessage)
    val full = SynthGraphs.erM(16, 120)
    assert(full.n == 16 && full.m == 120)
  }

  test("powerLaw and rmat reject more edges than the vertices have pairs, naming both numbers") {
    // 200,000,000 · 20 draws wrap a 32-bit Int negative: the sampler used to
    // draw nothing and return a graph with no edges
    val p = intercept[IllegalArgumentException](SynthGraphs.powerLaw(16, 200000000))
    assert(p.getMessage.contains("200000000") && p.getMessage.contains("16") && p.getMessage.contains("120"), p.getMessage)
    val r = intercept[IllegalArgumentException](SynthGraphs.rmat(4, 121))
    assert(r.getMessage.contains("121") && r.getMessage.contains("16") && r.getMessage.contains("120"), r.getMessage)
    assert(SynthGraphs.powerLaw(16, 120).m <= 120 && SynthGraphs.rmat(4, 120).m <= 120)
  }

  test("powerLaw produces requested sizes (approximately for m)") {
    val g = SynthGraphs.powerLaw(1000, 3000, 2.5, 3)
    assert(g.n == 1000)
    assert(g.m >= 2800 && g.m <= 3000)
  }

  test("powerLaw degrees are heavy-tailed") {
    val g = SynthGraphs.powerLaw(2000, 6000, 2.5, 4)
    val degs = (0 until g.n).map(g.degree)
    val mean = degs.sum.toDouble / g.n
    assert(degs.max > 8 * mean, s"max=${degs.max} mean=$mean")
  }

  test("powerLaw is deterministic") {
    val a = SynthGraphs.powerLaw(300, 900, 2.5, 9)
    val b = SynthGraphs.powerLaw(300, 900, 2.5, 9)
    assert(a.edgesExternal == b.edgesExternal)
  }

  test("ssca contains cliques (nontrivial max clique)") {
    val g = SynthGraphs.ssca(500, 12, 5)
    assert(Pattern.Clique(5).count(g) > 0)
  }

  test("rmat has the requested edge count and power-law-ish skew") {
    val g = SynthGraphs.rmat(10, 4000, 6)
    assert(g.m >= 3500)
    val degs = (0 until g.n).map(g.degree).filter(_ > 0)
    assert(degs.max > 5 * (degs.sum.toDouble / degs.length))
  }

  test("plantClique embeds a clique of the requested size") {
    val base = SynthGraphs.powerLaw(300, 600, 2.5, 7)
    val g    = SynthGraphs.plantClique(base, 15, 7)
    // a 15-clique forces classical k_max >= 14
    assert(KCore.decompose(g).kMax >= 14)
    assert(Pattern.Clique(6).count(g) >= repro.patterns.Combinatorics.choose(15, 6))
  }

  test("figure5 matches the Example-5 spec") {
    val g = TestUtil.figure5
    assert(g.n == 15)
    // S1: 7 vertices 15 edges; S2: K5; tail: 2 edges + 2 anchors = 29 total
    assert(g.m == 29)
    val dec = KCore.decompose(g)
    assert(dec.kMax == 4)
    // the 4-core is exactly the K5 (external ids 7..11)
    val k4 = dec.coreVertices(4).map(g.ids).toSet
    assert(k4 == Set(7L, 8L, 9L, 10L, 11L))
    // the 3-core is S1 ∪ S2 (12 vertices, 25 edges) with density 25/12
    val s3 = g.induced(dec.coreVertices(3))
    assert(s3.n == 12 && s3.m == 25)
  }

  test("standIn sizes track the paper at the requested scale") {
    val s = SynthGraphs.standIn("Yeast")
    assert(s.paperN == 1116 && s.paperM == 2148)
    assert(s.g.n == 1116)
    assert(math.abs(s.g.m - 2148L) < 200)
  }

  test("standIn Netscience contains its 20-clique (k_max >= 19)") {
    val s = SynthGraphs.standIn("Netscience")
    assert(KCore.decompose(s.g).kMax >= 19)
  }

  test("standIn S-DBLP contains its 13-clique") {
    val s = SynthGraphs.standIn("S-DBLP")
    assert(KCore.decompose(s.g).kMax >= 12)
  }

  test("standIn scale shrinks large graphs") {
    val s = SynthGraphs.standIn("DBLP", 0.01)
    assert(s.g.n <= 5000)
    assert(s.paperN == 425957)
  }

  test("unknown stand-in names are rejected") {
    intercept[IllegalArgumentException](SynthGraphs.standIn("nope"))
  }

  for (scale <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
    test(s"standIn rejects scale $scale, naming it") {
      val e = intercept[IllegalArgumentException](SynthGraphs.standIn("Yeast", scale))
      assert(e.getMessage.contains(scale.toString), e.getMessage)
    }
  }

  test("standIn rejects a scaled size above Int.MaxValue instead of wrapping it") {
    // UK-2002's 298,113,762 edges at scale 10 are 2,981,137,620 > 2^31 - 1
    val e = intercept[IllegalArgumentException](SynthGraphs.standIn("UK-2002", 10.0))
    assert(e.getMessage.contains("2.98113762E9"), e.getMessage)
  }

  for (scale <- Seq(0, -3, 31, 32)) {
    test(s"rmat rejects scale $scale, naming it") {
      val e = intercept[IllegalArgumentException](SynthGraphs.rmat(scale, 10))
      assert(e.getMessage.contains(scale.toString), e.getMessage)
    }
  }

  test("rmat accepts scale 1, the smallest") {
    val g = SynthGraphs.rmat(1, 1)
    assert(g.n == 2 && g.m == 1)
  }

  for (alpha <- Seq(1.0, 0.5, -2.0, Double.NaN)) {
    test(s"powerLaw rejects alpha $alpha, naming it") {
      val e = intercept[IllegalArgumentException](SynthGraphs.powerLaw(100, 200, alpha))
      assert(e.getMessage.contains(alpha.toString), e.getMessage)
    }
  }

  test("toDF yields canonical src<dst rows") {
    val spark = repro.SparkSpec.shared
    val g  = TestUtil.randomGraph(30, 0.2, 8)
    val df = SynthGraphs.toDF(spark, g).collect()
    assert(df.length.toLong == g.m)
    assert(df.forall(r => r.getLong(0) < r.getLong(1)))
  }
}

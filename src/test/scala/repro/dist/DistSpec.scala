package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{CliqueCore, Densest, Exact, KCore}
import repro.data.SynthGraphs
import repro.patterns.Pattern

class DistSpec extends SparkSpec {

  private def edgesDF(g: repro.graph.LocalGraph) = SynthGraphs.toDF(spark, g)

  test("canonical dedups, drops self-loops, orients src<dst") {
    import spark.implicits._
    val raw = Seq((1L, 2L), (2L, 1L), (3L, 3L), (2L, 3L)).toDF("src", "dst")
    val e = GraphDF.canonical(raw).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(e.toSeq == Seq((1L, 2L), (2L, 3L)))
  }

  test("degrees match DuckDB oracle") {
    val g = TestUtil.randomGraph(40, 0.15, 3)
    val e = edgesDF(g)
    Oracle.assertEquivalent(
      GraphDF.degrees(e),
      "SELECT id, COUNT(*) AS deg FROM " +
        "(SELECT src AS id FROM e UNION ALL SELECT dst AS id FROM e) GROUP BY id",
      "e" -> e)
  }

  test("degrees match LocalGraph degrees") {
    val g = TestUtil.randomGraph(30, 0.2, 5)
    val d = GraphDF.degrees(edgesDF(g)).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until g.n).foreach { v =>
      assert(d.getOrElse(g.ids(v), 0L) == g.degree(v).toLong)
    }
  }

  test("triangleDegrees match DuckDB oracle") {
    val g = TestUtil.randomGraph(25, 0.3, 7)
    val e = edgesDF(g)
    Oracle.assertEquivalent(
      GraphDF.triangleDegrees(e),
      """WITH t AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |           FROM e e1
        |           JOIN e e2 ON e1.dst = e2.src
        |           JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst)
        |SELECT id, COUNT(*) AS tdeg FROM
        |  (SELECT a AS id FROM t UNION ALL SELECT b FROM t UNION ALL SELECT c FROM t)
        |GROUP BY id""".stripMargin,
      "e" -> e)
  }

  test("triangleDegrees match local clique degrees") {
    val g = TestUtil.randomGraph(30, 0.25, 11)
    val local = repro.cliques.CliqueEnum.degrees(g, 3)
    val dist = GraphDF.triangleDegrees(edgesDF(g)).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until g.n).foreach { v =>
      assert(dist.getOrElse(g.ids(v), 0L) == local(v), s"v=$v")
    }
  }

  test("triangleCount matches local count") {
    val g = TestUtil.randomGraph(40, 0.2, 13)
    assert(GraphDF.triangleCount(spark, edgesDF(g)) ==
           repro.cliques.CliqueEnum.count(g, 3))
  }

  test("inducedEdges keeps only internal edges") {
    import spark.implicits._
    val e = Seq((1L, 2L), (2L, 3L), (3L, 4L)).toDF("src", "dst")
    val keep = Seq(1L, 2L, 3L).toDF("id")
    val out = GraphDF.inducedEdges(e, keep).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(out.toSeq == Seq((1L, 2L), (2L, 3L)))
  }

  test("DistKCore.kCoreVertices matches local k-core for several k") {
    val g   = TestUtil.randomGraph(60, 0.12, 17)
    val dec = KCore.decompose(g)
    val e   = edgesDF(g)
    for (k <- 1 to math.min(dec.kMax + 1, 4)) {
      val dist = DistKCore.kCoreVertices(spark, e, k).collect().map(_.getLong(0)).toSet
      val local = dec.coreVertices(k).map(g.ids).toSet
      assert(dist == local, s"k=$k")
    }
  }

  test("DistKCore.coreNumbers equal the sequential core numbers") {
    val g   = TestUtil.randomGraph(50, 0.15, 19)
    val dec = KCore.decompose(g)
    val core = DistKCore.coreNumbers(spark, edgesDF(g)).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until g.n).foreach { v =>
      // vertices never touching an edge are absent from the edge list; all
      // others must match exactly
      if (g.degree(v) > 0)
        assert(core(g.ids(v)) == dec.core(v).toLong, s"v=${g.ids(v)}")
    }
  }

  test("DistKCore.kMaxCore equals the local k_max-core (planted clique)") {
    val base = SynthGraphs.powerLaw(150, 300, 2.5, 23)
    val g    = SynthGraphs.plantClique(base, 10, 23)
    val (kMax, core) = DistKCore.kMaxCore(spark, edgesDF(g))
    val dec = KCore.decompose(g)
    assert(kMax == dec.kMax.toLong)
    assert(core.collect().map(_.getLong(0)).toSet ==
           dec.coreVertices(dec.kMax).map(g.ids).toSet)
  }

  test("edsApprox achieves at least half the exact EDS density (with eps slack)") {
    val g   = TestUtil.randomGraph(50, 0.15, 29)
    val opt = Exact.run(g, Pattern.Edge).density
    val r   = DistDensest.edsApprox(spark, edgesDF(g), eps = 0.05)
    assert(r.density + 1e-9 >= opt / (2 * 1.05), s"got ${r.density}, opt $opt")
    assert(r.density <= opt + 1e-9)
  }

  test("edsApprox density is self-consistent with its vertex set") {
    val g = TestUtil.randomGraph(40, 0.2, 31)
    val r = DistDensest.edsApprox(spark, edgesDF(g))
    val vs = r.vertexIds.toSet
    val m  = g.edgesExternal.count { case (a, b) => vs(a) && vs(b) }
    assert(math.abs(m.toDouble / vs.size - r.density) < 1e-9)
  }

  test("triangleCoreVertices matches the local (k,△)-core") {
    val g = TestUtil.randomGraph(30, 0.3, 37)
    val dec = CliqueCore.decompose(g, Pattern.Triangle)
    for (k <- Seq(1L, 2L, dec.kMax)) {
      val dist  = DistDensest.triangleCoreVertices(spark, edgesDF(g), k).toSet
      val local = dec.coreVertices(k).map(g.ids).toSet
      assert(dist == local, s"k=$k")
    }
  }

  test("triangleKMaxCore equals local IncApp for Ψ=triangle") {
    val base = SynthGraphs.powerLaw(120, 250, 2.5, 41)
    val g    = SynthGraphs.plantClique(base, 8, 41)
    val (k, vs) = DistDensest.triangleKMaxCore(spark, edgesDF(g))
    val dec = CliqueCore.decompose(g, Pattern.Triangle)
    assert(k == dec.kMax)
    assert(vs.toSet == dec.kMaxCoreVertices.map(g.ids).toSet)
  }

  test("distributed triangle-core density respects Theorem 1 bounds") {
    val g = TestUtil.randomGraph(40, 0.25, 43)
    val (k, vs) = DistDensest.triangleKMaxCore(spark, edgesDF(g))
    if (vs.nonEmpty && k > 0) {
      val extToLocal = (0 until g.n).map(v => g.ids(v) -> v).toMap
      val local = vs.map(extToLocal)
      val inst  = Pattern.Triangle.instances(g)
      val rho   = Densest.countWithin(inst, g.n, local).toDouble / vs.length
      assert(rho + 1e-9 >= k / 3.0)
      assert(rho <= k + 1e-9)
    }
  }

  test("vertices() lists each endpoint once") {
    import spark.implicits._
    val e = Seq((1L, 2L), (2L, 3L)).toDF("src", "dst")
    assert(GraphDF.vertices(e).collect().map(_.getLong(0)).sorted.toSeq == Seq(1L, 2L, 3L))
  }
}

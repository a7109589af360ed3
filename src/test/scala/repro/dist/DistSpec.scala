package repro.dist

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
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
    val local = Pattern.Triangle.degrees(g)
    val dist = GraphDF.triangleDegrees(edgesDF(g)).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until g.n).foreach { v =>
      assert(dist.getOrElse(g.ids(v), 0L) == local(v), s"v=$v")
    }
  }

  test("triangleCount matches local count") {
    val g = TestUtil.randomGraph(40, 0.2, 13)
    assert(GraphDF.triangleCount(spark, edgesDF(g)) ==
           Pattern.Triangle.count(g))
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

  test("every dist entry point on an empty edge frame and on the path 1-2-3-4") {
    import spark.implicits._
    def ids(df: org.apache.spark.sql.DataFrame) = df.collect().map(_.getLong(0)).toSet
    val empty = Seq.empty[(Long, Long)].toDF("src", "dst")
    val path  = Seq((1L, 2L), (2L, 3L), (3L, 4L)).toDF("src", "dst")
    val all   = Set(1L, 2L, 3L, 4L)

    assert(ids(DistKCore.kCoreVertices(spark, empty, 1)).isEmpty)
    assert(DistKCore.coreNumbers(spark, empty).collect().isEmpty)
    val (k0, core0) = DistKCore.kMaxCore(spark, empty)
    assert(k0 == 0L && ids(core0).isEmpty)
    val eds0 = DistDensest.edsApprox(spark, empty)
    assert(eds0.vertexIds.isEmpty && eds0.density == 0.0)
    assert(DistDensest.triangleCoreVertices(spark, empty, 1L).isEmpty)
    val (t0, tcore0) = DistDensest.triangleKMaxCore(spark, empty)
    assert(t0 == 0L && tcore0.isEmpty)

    assert(ids(DistKCore.kCoreVertices(spark, path, 1)) == all)
    assert(ids(DistKCore.kCoreVertices(spark, path, 2)).isEmpty)
    assert(DistKCore.coreNumbers(spark, path).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap == all.map(_ -> 1L).toMap)
    val (k, core) = DistKCore.kMaxCore(spark, path)
    assert(k == 1L && ids(core) == all)
    val eds = DistDensest.edsApprox(spark, path)
    assert(eds.vertexIds.toSet == all && eds.density == 0.75)
    assert(DistDensest.triangleCoreVertices(spark, path, 1L).isEmpty)
    val (t, tcore) = DistDensest.triangleKMaxCore(spark, path)
    assert(t == 0L && tcore.toSet == all)
  }

  test("edsApprox rejects a negative, infinite or NaN eps by value") {
    import spark.implicits._
    val k4 = (for (i <- 0L until 4L; j <- (i + 1) until 4L) yield (i, j)).toDF("src", "dst")
    for (eps <- Seq(-0.5, Double.PositiveInfinity, Double.NaN)) {
      val e = intercept[IllegalArgumentException](DistDensest.edsApprox(spark, k4, eps))
      assert(e.getMessage.contains(eps.toString), e.getMessage)
    }
    assert(DistDensest.edsApprox(spark, k4, 0.0).density == 1.5)
  }

  test("kMaxCore runs at most three Spark jobs per peel round") {
    import spark.implicits._
    // a 20-vertex path: level 1 holds for 10 rounds, each peeling both ends
    val path = (1L until 20L).map(v => (v, v + 1)).toDF("src", "dst")
    val sc   = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (!ListenerBusAccess.isMapStageJob(e)) jobs.incrementAndGet()
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      val (k, core) = DistKCore.kMaxCore(spark, path)
      assert(k == 1L && core.collect().length == 20)
      ListenerBusAccess.drain(sc)
    } finally sc.removeSparkListener(listener)
    // Jobs of actions: 3 per round, plus the input checkpoint, the final empty
    // round and the collect above. The shuffles inside an action run as
    // map-stage jobs of their own and are not counted.
    assert(jobs.get <= 3 * 10 + 5, s"${jobs.get} Spark jobs for 10 peel rounds")
  }

  test("vertices() lists each endpoint once") {
    import spark.implicits._
    val e = Seq((1L, 2L), (2L, 3L)).toDF("src", "dst")
    assert(GraphDF.vertices(e).collect().map(_.getLong(0)).sorted.toSeq == Seq(1L, 2L, 3L))
  }
}

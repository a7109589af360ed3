package dsbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Runs one workload: set-up, warm-up passes, untraced passes for the given
  * seconds, then (with `--trace 1`) the traced pass and the layer probes;
  * checks every answer; prints one JSON object as the last line.
  *
  * {{{
  * dsbench.Main --workload exact-search --seed 1 --seconds 10 --trace 0
  * }}}
  */
object Main {

  /** Least share of a traced pass its layer spans must cover. */
  val CoverageTolerance = 0.95

  /** Times set-up (stand-in generation) is repeated; its median is reported. */
  val SetupRepeats = 3

  /** Least number of timed passes, however long one pass takes. */
  val MinPasses = 3

  /** Warm-up: this many passes, or fewer once this many seconds are spent. */
  val WarmPasses  = 2
  val WarmSeconds = 3.0

  final case class Run(answers: Seq[Answer], seconds: Double, error: Option[String], expected: Int)

  /** One pass: `body` makes the queries. An error ends the pass; the answers
    * it did not return count as failed.
    */
  private def pass(trace: Trace, spark: SparkSession, expected: Int)(body: Pass => Unit): Run = {
    System.gc()
    val p  = new Pass(trace, spark)
    val t0 = System.nanoTime()
    val error =
      try { body(p); None }
      catch {
        case e @ (NonFatal(_) | _: OutOfMemoryError | _: StackOverflowError) => Some(s"${p.current}: $e")
      }
    Run(p.answers.toSeq, (System.nanoTime() - t0) / 1e9, error, expected)
  }

  /** Passes until `minPasses` ran or `seconds` passed. */
  private def warmUp(minPasses: Int, seconds: Double)(one: => Run): Seq[Run] = {
    val b  = Seq.newBuilder[Run]
    val t0 = System.nanoTime()
    var k  = 0
    while (k < minPasses && System.nanoTime() - t0 < seconds * 1e9) { b += one; k += 1 }
    b.result()
  }

  /** At least `minPasses` passes, then more while one more pass, as long as
    * the median so far, still ends within `seconds` of the start.
    */
  private def timedPasses(minPasses: Int, seconds: Double)(one: => Run): Seq[Run] = {
    val b  = collection.mutable.ArrayBuffer.empty[Run]
    val t0 = System.nanoTime()
    def fits = (System.nanoTime() - t0) / 1e9 + median(b.map(_.seconds).toSeq) <= seconds
    while (b.size < minPasses || fits) b += one
    b.toSeq
  }

  def main(args: Array[String]): Unit = {
    val bootS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val opts  = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      System.err.println(s"usage: --workload {${Workloads.all.map(_.name).mkString("|")}} " +
        "--seed N --seconds S --trace 0|1")
      sys.exit(2)
    }
    val seed    = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val traced  = opts.getOrElse("trace", "0") == "1"

    val gens = (1 to SetupRepeats).map { _ =>
      System.gc()
      timed(w.inputs.map(i => i.label -> EdgeList.of(i, seed)).toMap)
    }
    val inputs = gens.last._1
    val setupS = bootS + median(gens.map(_._2))
    w.inputs.foreach { i =>
      val e = inputs(i.label)
      val relabel = if (i.relabel) s", relabelled with seed ${i.seed(seed)}" else ""
      println(s"input ${i.label}: ${i.standIn} stand-in at scale ${i.scale}, seed ${i.structureSeed(seed)}$relabel, " +
        s"n=${e.n}, m=${e.m}")
    }

    def workloadPass(trace: Trace): Run = pass(trace, null, w.queries)(w.pass(inputs, _))
    val warm      = warmUp(WarmPasses, WarmSeconds)(workloadPass(new Trace(false)))
    val timedRuns = timedPasses(MinPasses, seconds)(workloadPass(new Trace(false)))
    val e2eS = median(timedRuns.map(_.seconds))
    println(f"e2e_s: median of ${timedRuns.size} warm passes, $e2eS%.4f s " +
      s"(passes: ${timedRuns.map(r => f"${r.seconds}%.3f").mkString(" ")})")
    timedRuns.flatMap(_.answers).groupBy(_.query).toSeq.sortBy(_._1).foreach { case (q, as) =>
      println(f"query median over passes: $q ${median(as.map(_.seconds))}%.4f s")
    }

    var layers    = Map.empty[String, Double]
    var traceRuns = Seq.empty[Run]
    var distEdges = Option.empty[EdgeList]
    if (traced) {
      val trace = new Trace(true)
      val gc0   = Jvm.gcSeconds
      val run   = workloadPass(trace)
      val gcS   = Jvm.gcSeconds - gc0
      val (distRuns, distLayers) =
        if (!w.probesDist) (Nil, DistMetrics.map(_ -> 0.0).toMap)
        else {
          val e = EdgeList.of(Workloads.Dist.input, seed)
          distEdges = Some(e)
          println(s"dist probe input ${e.name}: n=${e.n}, m=${e.m}")
          distProbe(e)
        }
      traceRuns = run +: distRuns
      layers = traceMetrics(run, trace, gcS, e2eS) ++ distLayers ++
        Probes.run(w, inputs, run.answers) ++
        shapeRatios(timedRuns) +
        ("code.src_main_lines" -> srcMainLines().toDouble)
    }

    val ref  = new Reference(inputs ++ distEdges.map(e => e.name -> e))
    var attempted, failed = 0
    val failures = Seq.newBuilder[String]
    (warm ++ timedRuns ++ traceRuns).foreach { r =>
      attempted += r.expected
      failed += r.expected - r.answers.size
      r.error.foreach(e => failures += s"workload=${w.name} pass error after ${r.answers.size} answers: $e")
      r.answers.foreach { a =>
        val bad =
          try Checks.of(ref, a, r.answers)
          catch { case NonFatal(e) => Seq(s"check threw $e") }
        if (bad.nonEmpty) failed += 1
        bad.foreach(b => failures += s"CHECK FAILED workload=${w.name} query=${a.query} layer=${a.layer}: $b")
      }
    }
    failures.result().distinct.take(20).foreach(println)
    reportShapes(w, timedRuns)
    timedRuns.headOption.foreach(_.answers.flatMap(a => a.result.stats.map(a.query -> _.probes)).foreach {
      case (q, probes) => println(s"probes: $q = $probes")
    })

    val metrics =
      if (traced) layers.toSeq.sortBy(_._1).map { case (k, v) => (k, v, Units.of(k)) }
      else Seq(("setup_s", setupS, "s"), ("e2e_s", e2eS, "s"),
               ("pass_rate", 1.0 - failed.toDouble / attempted, "ratio"))
    println(json(failed == 0, attempted, failed, metrics))
    sys.exit(0)
  }

  private val DistMetrics = Seq("dist.kcore_s", "dist.eds_s", "dist.tricore_s", "dist.jobs", "dist.stages",
                                "dist.tasks", "dist.shuffle_bytes", "dist.shuffle_records")

  /** The dist layer probe: a Spark session, one warm-up pass of the
    * distributed queries, then one traced pass whose Spark rounds a listener
    * counts.
    */
  private def distProbe(e: EdgeList): (Seq[Run], Map[String, Double]) = {
    val spark  = startSpark()
    val rounds = new SparkRounds(spark.sparkContext)
    def distPass(trace: Trace) = pass(trace, spark, Workloads.Dist.queries)(Workloads.Dist.pass(e, _))
    try {
      val warm   = distPass(new Trace(false))
      val before = rounds.snapshot()
      val run    = distPass(new Trace(true))
      val after  = rounds.snapshot()
      def algoS(algo: String) = run.answers.filter(_.algo == algo).map(_.seconds).sum
      val counts = after.map { case (k, v) => s"dist.$k" -> (v - before(k)).toDouble }
      (Seq(warm, run), counts ++ Map(
        "dist.kcore_s"   -> algoS("DistKCore.kMaxCore"),
        "dist.eds_s"     -> algoS("DistDensest.edsApprox"),
        "dist.tricore_s" -> algoS("DistDensest.triangleKMaxCore")))
    } finally spark.stop()
  }

  /** Metrics of the traced pass itself. */
  private def traceMetrics(run: Run, trace: Trace, gcS: Double, e2eS: Double): Map[String, Double] = {
    val stats   = run.answers.flatMap(_.result.stats)
    val totalS  = stats.map(_.totalNanos).sum / 1e9
    val decompS = stats.map(_.coreDecompNanos).sum / 1e9
    val probes  = stats.map(_.probes).sum
    def algoS(algo: String) = run.answers.filter(_.algo == algo).map(_.seconds).sum
    val coverage = trace.totalSeconds / run.seconds
    println(f"traced pass: ${run.seconds}%.4f s; spans: " +
      trace.bySpan.map { case (layer, s) => f"$layer $s%.4f s" }.mkString(", "))
    if (coverage < CoverageTolerance)
      println(f"trace: FLAG layer spans cover $coverage%.4f of the traced pass (tolerance $CoverageTolerance)")
    Map(
      "jvm.gc_s"                    -> gcS,
      "search.s"                    -> (totalS - decompS),
      "search.probes"               -> probes.toDouble,
      "search.s_per_probe"          -> (if (probes > 0) (totalS - decompS) / probes else 0.0),
      "search.network_nodes_total"  -> stats.flatMap(_.networkNodeCounts).map(_.toLong).sum.toDouble,
      "search.decomp_share"         -> (if (totalS > 0) decompS / totalS else 0.0),
      "exact.s"                     -> algoS("Exact"),
      "approx.coreapp_s"            -> algoS("CoreApp"),
      "approx.emcore_s"             -> algoS("EMcore"),
      "approx.peelapp_s"            -> algoS("PeelApp"),
      "trace.coverage"              -> coverage,
      "trace.overhead_frac"         -> (run.seconds - e2eS) / e2eS)
  }

  /** The paper's two shape gates: (metric, input, slow algo, fast algo). */
  private val Shapes = Seq(
    ("exact.over_coreexact", "Netscience", "Exact", "CoreExact"),
    ("approx.peelapp_over_coreapp", "R-MAT", "PeelApp", "CoreApp"))

  /** Median time of the slow algo over the fast one on the triangle cell,
    * from the timed passes; 0 where the workload does not run the pair.
    */
  private def shapeTimes(runs: Seq[Run]): Seq[(String, Double, Double)] =
    Shapes.flatMap { case (metric, input, slow, fast) =>
      def med(algo: String) = median(runs.flatMap(_.answers.filter(a =>
        a.input == input && a.algo == algo && a.psi == repro.patterns.Pattern.Triangle).map(_.seconds)))
      if (med(slow).isNaN || med(fast).isNaN) None else Some((metric, med(slow), med(fast)))
    }

  private def shapeRatios(runs: Seq[Run]): Map[String, Double] =
    Shapes.map(_._1 -> 0.0).toMap ++ shapeTimes(runs).map { case (m, s, f) => m -> s / f }

  private def reportShapes(w: Workload, runs: Seq[Run]): Unit =
    shapeTimes(runs).foreach { case (metric, slow, fast) =>
      val verdict = if (slow / fast > 1.0) "holds" else "FAILED"
      println(f"shape gate $metric on ${w.name}: ${slow / fast}%.3f $verdict ($slow%.4f s vs $fast%.4f s)")
    }

  private def startSpark(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val local = Paths.get(sys.props.getOrElse("java.io.tmpdir", ".bench_build/tmp")).toAbsolutePath
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("dsbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", local.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def srcMainLines(): Long = {
    val root = Paths.get("src", "main")
    if (!Files.isDirectory(root)) 0L
    else Files.walk(root).iterator.asScala.filter(Files.isRegularFile(_))
      .map((f: Path) => Files.readAllLines(f).size.toLong).sum
  }

  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  private def json(correct: Boolean, attempted: Int, failed: Int,
                   metrics: Seq[(String, Double, String)]): String = {
    def num(x: Double) = if (x.isNaN || x.isInfinite) "0.0" else java.lang.Double.toString(x)
    val ms = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Units of the per-layer metrics, by name. */
object Units {
  def of(metric: String): String = metric match {
    case m if m.endsWith("_mb")       => "MB"
    case m if m.endsWith("_per_s")    => "1/s"
    case m if m.endsWith("_s") || m.endsWith(".s") || m.endsWith("s_per_probe") => "s"
    case m if m.endsWith("_bytes")    => "bytes"
    case m if m.startsWith("trace.") || m.endsWith("_share") || m.contains("over_") => "ratio"
    case "code.src_main_lines"        => "lines"
    case _                            => "count"
  }
}

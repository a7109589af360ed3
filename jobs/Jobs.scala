package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.SynthGraphs
import repro.dist.{DistDensest, DistKCore}
import repro.exp.Tables

/** spark-submit entrypoints, one per reproduced table (DESIGN.md index).
  * The table harnesses are driver-side (the paper's algorithms are
  * single-machine); [[DistributedDemo]] exercises the Spark dataflow
  * implementations.
  */
object T2Datasets {
  def main(args: Array[String]): Unit = println(Tables.datasets())
}

object T3CoreDecompShare {
  def main(args: Array[String]): Unit = println(Tables.coreDecompShare())
}

object T4EmcoreVsCoreApp {
  def main(args: Array[String]): Unit = println(Tables.emcoreVsCoreApp())
}

object T5Densities {
  def main(args: Array[String]): Unit = println(Tables.densities())
}

object F19Speedups {
  def main(args: Array[String]): Unit = println(Tables.speedups())
}

/** Distributed k-core decomposition + densest-subgraph approximation on a
  * stand-in graph, via the DataFrame implementations.
  */
object DistributedDemo {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-distributed-demo")
      .config("spark.sql.shuffle.partitions", "16")
      .getOrCreate()
    val name  = args.headOption.getOrElse("Netscience")
    val g     = SynthGraphs.standIn(name).g
    val edges = SynthGraphs.toDF(spark, g)
    val (kMax, core) = DistKCore.kMaxCore(spark, edges)
    println(s"[dist] $name: classical k_max = $kMax, |k_max-core| = ${core.count()}")
    val eds = DistDensest.edsApprox(spark, edges)
    println(s"[dist] $name: EDS approx density = ${eds.density} on ${eds.vertexIds.length} vertices")
    val (tk, tCore) = DistDensest.triangleKMaxCore(spark, edges)
    println(s"[dist] $name: triangle k_max = $tk, |core| = ${tCore.length}")
    spark.stop()
  }
}

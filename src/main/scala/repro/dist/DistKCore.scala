package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed k-core algorithms as iterative DataFrame dataflows.
  *
  * This is the "distributed implementation" the paper defers to future work
  * (Section 9) and the reproduction band asks for: k-core extraction and
  * full core decomposition by iterative vertex-degree pruning, each a level
  * rule over the one batched peel [[GraphDF.peel]].
  */
object DistKCore {

  /** Vertices of the k-core: iteratively prune vertices with degree < k
    * until a fixpoint. Returns a single-column (`id`) DataFrame.
    */
  def kCoreVertices(spark: SparkSession, edges0: DataFrame, k: Int): DataFrame =
    GraphDF.coreAt(edges0, GraphDF.degrees, k)

  /** Full core decomposition by batched peeling: repeatedly remove every
    * vertex whose residual degree is <= the current level k (raising k to
    * the residual minimum degree when no vertex qualifies). Exact — matches
    * the sequential Batagelj–Zaversnik core numbers.
    * Returns (id, core).
    */
  def coreNumbers(spark: SparkSession, edges0: DataFrame): DataFrame = {
    import spark.implicits._
    var k = 0L
    var acc: DataFrame = Seq.empty[(Long, Long)].toDF("id", "core")
    GraphDF.peel(edges0, GraphDF.degrees) { r =>
      k = math.max(k, r.minDeg)
      acc = acc.union(r.degrees.filter(col("deg") <= k).select(col("id"), lit(k).as("core")))
      Some(k.toDouble)
    }
    acc
  }

  /** k_max and the k_max-core vertex set (the k_max rule of [[GraphDF.maxCore]]). */
  def kMaxCore(spark: SparkSession, edges0: DataFrame): (Long, DataFrame) =
    GraphDF.maxCore(edges0, GraphDF.degrees)
}

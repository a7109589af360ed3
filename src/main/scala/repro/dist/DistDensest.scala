package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed densest-subgraph approximation by iterative degree pruning.
  *
  * `edsApprox` is the Bahmani–Kumar–Vassilvitskii batched peel (referenced
  * by the paper as the streaming/MapReduce baseline): each round removes
  * EVERY vertex whose degree is at most 2(1+ε)·ρ(residual), giving a
  * 1/(2(1+ε))-approximation to the EDS in O(log n / ε) rounds.
  *
  * `triangleKMaxCore` is the distributed analogue of IncApp for Ψ=triangle:
  * batched peeling on triangle-degrees (recomputed per round via DataFrame
  * self-joins) down to the (k_max, △)-core.
  */
object DistDensest {

  /** Result of a distributed approximation: vertex ids + density achieved. */
  final case class Result(vertexIds: Array[Long], density: Double)

  /** 1/(2(1+eps))-approximate EDS via batched peeling. A round removes at
    * least one vertex only when eps >= 0 (the threshold is then at least the
    * average degree), so a negative, infinite or NaN eps is rejected.
    */
  def edsApprox(spark: SparkSession, edges0: DataFrame, eps: Double = 0.1): Result = {
    require(eps >= 0 && eps < Double.PositiveInfinity, s"eps must be finite and >= 0, got $eps")
    var bestRho = 0.0
    var bestIds = Option.empty[DataFrame]
    GraphDF.peel(edges0, GraphDF.degrees) { r =>
      val rho = (r.degSum / 2).toDouble / r.n
      if (rho > bestRho) { bestRho = rho; bestIds = Some(r.degrees) }
      if (r.degSum == 0) None else Some(2.0 * (1.0 + eps) * rho)
    }
    Result(bestIds.fold(Array.empty[Long])(ids), bestRho)
  }

  /** Distributed (k, △)-core extraction: prune vertices with triangle-degree
    * < k until a fixpoint. Returns the surviving vertex ids.
    */
  def triangleCoreVertices(spark: SparkSession, edges0: DataFrame, k: Long): Array[Long] =
    ids(GraphDF.coreAt(edges0, GraphDF.triangleDegrees, k))

  /** Distributed IncApp for Ψ = triangle: batch-peel on triangle-degree,
    * returning (k_max, vertices of the (k_max, △)-core).
    */
  def triangleKMaxCore(spark: SparkSession, edges0: DataFrame): (Long, Array[Long]) = {
    val (k, core) = GraphDF.maxCore(edges0, GraphDF.triangleDegrees)
    (k, ids(core))
  }

  private def ids(vertices: DataFrame): Array[Long] =
    vertices.select("id").collect().map(_.getLong(0))
}
